"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the `<workload>-trace<t>-seed<n>.json` records that
run.py writes under .perfbench/.  For every workload and metric present on
both sides the script prints the median over each side's runs and the change
as a share of the base median.  Records made on different mpmath backends,
Python or mpmath versions are flagged: the backend alone changes `crc`
timings, so such a comparison does not measure the code.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("mpmath_backend", "python", "mpmath", "nproc")


def load(directory: str) -> dict:
    """{(workload, trace): [record, ...]} for the records in a directory."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*-trace[01]-seed*.json")):
        if path.name.endswith(".spans.json"):
            continue
        with open(path) as handle:
            record = json.load(handle)
        out.setdefault((record["workload"], record["trace"]), []).append(record)
    return out


def main(base_dir: str, new_dir: str) -> int:
    base, new = load(base_dir), load(new_dir)
    for key in ENV_KEYS:
        seen = {r["environment"][key] for side in (base, new)
                for records in side.values() for r in records}
        if len(seen) > 1:
            print(f"WARNING: records differ in {key}: {sorted(map(str, seen))}")
    for workload, trace in sorted(set(base) & set(new)):
        print(f"{workload} (trace {trace}): {len(base[workload, trace])} base runs, "
              f"{len(new[workload, trace])} new runs")
        for name, (_, unit) in base[workload, trace][0]["metrics"].items():
            b = statistics.median(r["metrics"][name][0] for r in base[workload, trace])
            n = statistics.median(r["metrics"][name][0] for r in new[workload, trace])
            change = f"{(n - b) / b:+.1%}" if b else "n/a"
            print(f"  {name:44s} {b:14.6g} -> {n:14.6g} {unit:6s} {change}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
