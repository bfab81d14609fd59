"""Cold-process benchmark of the `qmckay` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each request is one fresh
`python -m qmckay.cli ...` process with PYTHONPATH=src, run one at a time in
a closed loop (one client, one request in flight).  A pass runs every
request of the workload once, in an order drawn from the seed; passes repeat
while another fits in S seconds.  Every request's outcome is checked by
oracle.py.  The run is pinned to one core, and every time it reports is
scaled to reference speed by a fixed loop timed on that core around each
request (README.md, "Host speed").

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of tracer.py, from passes traced
in-process alternated with untraced ones.  The line before it records the
seed, the request orders, the environment and any failures.  The full record
is also written under .perfbench/ in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import oracle
import tracer
from workloads import PROBE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 15

# Host speed.  On a shared host the same code runs up to 1.5x slower for
# seconds to minutes at a time, on each core apart from the other.  The whole
# run is pinned to one core, and a fixed pure-Python reference loop is timed
# on it after every request, so every timing can be scaled to the speed at
# which the reference loop takes REF_S.  The speed during a request is taken
# from the reference times just before and just after it.
REF_S = 0.003
REF_REPEATS = 5


@dataclass
class Outcome:
    argv: str
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None
    ref_index: int
    spans: list | None = None
    scale: float = 1.0  # takes its times to reference speed; set when the run ends


def child_env() -> dict:
    """The parent's environment with src/ on the path and no QMCKAY_* settings,
    so the program sees only its command-line arguments."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QMCKAY_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def reference_seconds() -> float:
    """Median time of REF_REPEATS runs of a fixed pure-Python loop."""
    times = []
    for _ in range(REF_REPEATS):
        start = perf_counter()
        table = {}
        for i in range(12000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i * i % 7
        times.append(perf_counter() - start)
    return statistics.median(times)


def pin_to_one_core() -> int:
    """Pin this process, and so every thread and child it starts later, to the
    highest-numbered core it may use, so that the reference loop runs on the
    core that runs the requests."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class Runner:
    """Spawns request processes and reaps each with wait4 for its rusage."""

    def __init__(self, pool: ThreadPoolExecutor):
        self.env = child_env()
        self.pool = pool
        self.oracle = oracle.Oracle()
        self.refs = [reference_seconds()]

    def mark(self) -> int:
        """Time the reference loop after a call; its index in self.refs."""
        self.refs.append(reference_seconds())
        return len(self.refs) - 1

    def scale(self, index: int) -> float:
        """Factor that takes the times of the call just before reference
        `index` to reference speed."""
        return REF_S / ((self.refs[index - 1] + self.refs[index]) / 2)

    def spawn(self, cmd: list[str], trace_pipe: tuple[int, int] | None = None):
        """Run cmd to completion: (exit code, stdout, stderr, spans, wall, rusage).

        With trace_pipe, the child writes its spans to the pipe's write end.
        """
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                pass_fds=trace_pipe[1:] if trace_pipe else ())
        try:
            err = self.pool.submit(proc.stderr.read)
            trace = None
            if trace_pipe:
                os.close(trace_pipe[1])
                trace = self.pool.submit(_read_all, trace_pipe[0])
            stdout = proc.stdout.read()
            stderr = err.result()
            spans = json.loads(trace.result() or b"null") if trace else None
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return proc.returncode, stdout, stderr, spans, wall, usage

    def request(self, argv, traced: bool = False) -> Outcome:
        if traced:
            pipe = os.pipe()
            cmd = [sys.executable, str(HERE / "tracer.py"), str(pipe[1]), *argv]
        else:
            pipe = None
            cmd = [sys.executable, "-m", "qmckay.cli", *argv]
        code, stdout, stderr, spans, wall, usage = self.spawn(cmd, pipe)
        ref_index = self.mark()
        error = self.oracle.check(argv, code, stdout)
        if error and stderr:
            error += f" ({stderr.decode(errors='replace').strip().splitlines()[-1]})"
        return Outcome(
            argv=" ".join(argv), exit=code, wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024,
            error=error, ref_index=ref_index, spans=spans,
        )

    def time_setup(self) -> list[tuple[float, int]]:
        """Wall times of a fresh interpreter importing qmckay.cli, each with
        the index of the reference time after it."""
        cmd = [sys.executable, "-c", "import qmckay.cli"]
        samples = []
        for _ in range(SETUP_SAMPLES + 1):  # the first one warms the caches
            code, _, stderr, _, wall, _ = self.spawn(cmd)
            if code != 0:
                raise SystemExit(f"importing qmckay.cli failed: {stderr.decode()}")
            samples.append((wall, self.mark()))
        return samples[1:]


def _read_all(fd: int) -> bytes:
    with os.fdopen(fd, "rb") as handle:
        return handle.read()


def end_to_end(passes: list[list[Outcome]], setup_s: float) -> dict:
    """Each request is taken at its median over the passes, times at
    reference speed, then a pass is the sum (wall_s, cpu_s), median
    (req_p50_s) or maximum (req_max_s, peak_rss_mb) over its requests."""
    def per_request(value) -> list[float]:
        runs: dict[str, list[float]] = {}
        for outcome in (o for p in passes for o in p):
            runs.setdefault(outcome.argv, []).append(value(outcome))
        return [statistics.median(v) for v in runs.values()]

    walls = per_request(lambda o: o.wall_s * o.scale)
    return {
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(per_request(lambda o: o.cpu_s * o.scale)), "s"),
        "req_p50_s": (statistics.median(walls), "s"),
        "req_max_s": (max(walls), "s"),
        "peak_rss_mb": (max(per_request(lambda o: o.rss_mb)), "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(untraced: list[list[Outcome]], traced: list[list[Outcome]]) -> dict:
    totals = [tracer.pass_metrics([o.spans or [] for o in p], [o.scale for o in p])
              for p in traced]
    metrics = tracer.layer_metrics(
        totals,
        traced_walls=[sum(o.wall_s * o.scale for o in p) for p in traced],
        untraced_walls=[sum(o.wall_s * o.scale for o in p) for p in untraced],
    )
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"s": "s", "self_s": "s", "bytes": "bytes", "kept_ratio": "ratio",
            "overhead_frac": "ratio"}.get(suffix, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmckay" / "cli.py").is_file():
        print(f"run.py: no qmckay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = {**environment(), "core": pin_to_one_core()}
    requests = WORKLOADS[args.workload].requests
    rng = random.Random(args.seed)
    orders, untraced, traced = [], [], []
    with ThreadPoolExecutor(max_workers=2) as pool:
        runner = Runner(pool)
        setup = [] if args.trace else runner.time_setup()

        def run_pass(trace: bool) -> list[Outcome]:
            order = rng.sample(requests, len(requests))
            orders.append([" ".join(a) for a in order])
            return [runner.request(a, trace) for a in order]

        # Passes (pairs of passes when tracing) repeat while another fits.
        started = perf_counter()
        rounds = 0
        while not rounds or (perf_counter() - started) * (rounds + 1) / rounds <= args.seconds:
            untraced.append(run_pass(False))
            if args.trace:
                traced.append(run_pass(True))
            rounds += 1
        probe = None
        if args.workload == "catalog":
            outcome = runner.request(PROBE)
            probe = {"argv": outcome.argv, "exit": outcome.exit,
                     "ok": outcome.error is None, "error": outcome.error}

    done = untraced + traced
    for outcome in (o for p in done for o in p):
        outcome.scale = runner.scale(outcome.ref_index)
    setup_s = statistics.median(wall * runner.scale(i) for wall, i in setup) if setup else None
    failures = [f"{o.argv}: {o.error}" for p in done for o in p if o.error]
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setup_s)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "orders": orders, "probe": probe,
        "failures": failures,
    }
    write_record({**record, "references_s": runner.refs}, metrics, done)

    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(p) for p in done),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_record(record: dict, metrics: dict, passes: list[list[Outcome]]) -> None:
    """Write the run's record, its requests and, when traced, its spans."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-trace{record['trace']}-seed{record['seed']}"
    rows = [{"pass": i, "traced": o.spans is not None,
             **{k: v for k, v in asdict(o).items() if k != "spans"}}
            for i, p in enumerate(passes) for o in p]
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump({**record, "metrics": metrics, "requests": rows}, handle, indent=1)
    if record["trace"]:
        spans = [{"pass": i, "request": j, "argv": o.argv, "spans": o.spans}
                 for i, p in enumerate(passes) for j, o in enumerate(p) if o.spans]
        with open(OUT_DIR / f"{stem}.spans.json", "w") as handle:
            json.dump(spans, handle)


if __name__ == "__main__":
    sys.exit(main())
