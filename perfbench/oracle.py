"""Correctness oracle for every benchmark request.

Expected outcomes live in expected.json, captured at the commit that added
the benchmark by running this file from the checkout root:

    python3 perfbench/oracle.py

Data commands must reproduce the captured exit code and stdout digest
(byte-identical output).  `verify` is judged on its payload instead: exit 0,
status "pass", every check "pass", and every captured check name present,
so extra fields and extra checks stay legal.  JSON output must also validate
against `qmckay.schemas.BY_COMMAND`.  The low-precision probe has no
captured outcome: it is correct when it exits 0 with schema-valid JSON.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import jsonschema

from workloads import PROBE, WORKLOADS

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def _schema_error(argv, stdout: bytes) -> str | None:
    from qmckay.schemas import BY_COMMAND

    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    try:
        jsonschema.validate(payload, BY_COMMAND[argv[0]])
    except jsonschema.ValidationError as exc:
        return f"schema: {exc.message}"
    return None


def _verify_error(expected: dict, stdout: bytes) -> str | None:
    payload = json.loads(stdout)
    failed = [c["name"] for c in payload["checks"] if c["status"] != "pass"]
    if payload["status"] != "pass" or failed:
        return f"checks failed: {failed}"
    missing = set(expected["checks"]) - {c["name"] for c in payload["checks"]}
    if missing:
        return f"checks missing: {sorted(missing)}"
    return None


def judge(expected: dict | None, argv, code: int, stdout: bytes) -> str | None:
    """None when the outcome is correct, else a one-line reason."""
    want_code = 0 if expected is None else expected["exit"]
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        problem = _schema_error(argv, stdout)
        if problem:
            return problem
    if expected is None:
        return None
    if argv[0] == "verify":
        return _verify_error(expected, stdout)
    if hashlib.sha256(stdout).hexdigest() != expected["sha256"]:
        return "stdout differs from the captured output"
    return None


class Oracle:
    """The captured outcomes, with each distinct verdict computed once."""

    def __init__(self):
        with open(EXPECTED_PATH) as handle:
            self.expected = json.load(handle)
        self._verdicts: dict = {}

    def check(self, argv, code: int, stdout: bytes) -> str | None:
        key = (argv, code, hashlib.sha256(stdout).digest())
        if key not in self._verdicts:
            expected = None if argv == PROBE else self.expected[" ".join(argv)]
            self._verdicts[key] = judge(expected, argv, code, stdout)
        return self._verdicts[key]


def capture(env: dict) -> dict:
    """Run every workload request once and record its outcome."""
    out = {}
    for workload in WORKLOADS.values():
        for argv in workload.requests:
            proc = subprocess.run(
                [sys.executable, "-m", "qmckay.cli", *argv],
                env=env, capture_output=True, check=False,
            )
            entry = {"exit": proc.returncode}
            if argv[0] == "verify":
                entry["checks"] = [c["name"] for c in json.loads(proc.stdout)["checks"]]
            else:
                entry["sha256"] = hashlib.sha256(proc.stdout).hexdigest()
            problem = judge(entry, argv, proc.returncode, proc.stdout)
            if proc.returncode != 0 or problem:
                raise SystemExit(f"{' '.join(argv)}: refusing to capture a failure ({problem})")
            out[" ".join(argv)] = entry
    return out


if __name__ == "__main__":
    from run import ROOT, child_env

    sys.path.insert(0, str(ROOT / "src"))
    expected = capture(child_env())
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expected)} outcomes to {EXPECTED_PATH}")
