"""The CLI contract as one property over a grid of argv, run in process
through `cli.main`: every input either succeeds or exits with its documented
code and its one stderr line, and a success is well-formed and repeatable.
A second property holds the argparse-free reading of a canonical argv to
what argparse reads."""

import contextlib
import csv
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import jsonschema
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmckay import cli
from qmckay.schemas import BY_COMMAND

# the flags each subcommand takes besides the common ones
SERIES_FLAGS = ("--max-q-degree", "--q-series-degree")
FLAGS = {
    "roots": (), "group": (), "bps": (), "intersect": (),
    "gw": ("--max-q-degree", "--lambda-order"),
    "partition": SERIES_FLAGS, "dt": SERIES_FLAGS, "verify": SERIES_FLAGS,
    "crc": ("--degree",),
}
VALUES = {
    "--max-q-degree": st.integers(-1, 3),
    "--q-series-degree": st.integers(-1, 3),
    "--lambda-order": st.integers(-1, 3),
    "--degree": st.integers(0, 5),
}
GROUPS = (
    [f"C:{k}" for k in range(2, 9)] + [f"A{2 * k - 1}" for k in range(2, 9)]
    + [f"D:{m}" for m in range(2, 7)] + [f"D{m + 2}" for m in range(2, 7)]
    + ["T", "O", "I", "E6", "E7", "E8", "tetrahedral", "Octahedral", "ICOSAHEDRAL", "c:3"]
    # malformed or unsupported
    + ["C:1", "A4", "D3", "E5", "Q", "C:2.5", ""]
)
PRECISIONS = (None, 9, 10, 11, 15, 3999, 4000, 4001)
ARGPARSE_ERROR = re.compile(r"qmckay( [a-z]+)?: error: .+")


@st.composite
def requests(draw):
    """(argv without --format, the format, QMCKAY_PRECISION or None)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, "--group", draw(st.sampled_from(GROUPS))]
    for flag in FLAGS[command]:
        if draw(st.booleans()):
            argv += [flag, str(draw(VALUES[flag]))]
    # now and then a flag this command does not take, which argparse rejects
    stray = draw(st.sampled_from([*[None] * 12, *VALUES]))
    if stray is not None and stray not in FLAGS[command]:
        argv += [stray, str(draw(VALUES[stray]))]
    precision = draw(st.sampled_from(PRECISIONS))
    source = draw(st.sampled_from(["flag", "env"]))
    if precision is not None and source == "flag":
        argv += ["--precision", str(precision)]
    env = str(precision) if precision is not None and source == "env" else None
    return argv, draw(st.sampled_from(["json", "csv", "text"])), env


def _main(argv, env):
    """(exit code, stdout, stderr) of one in-process run, with
    QMCKAY_PRECISION set to ``env`` or unset."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop(cli.PRECISION_ENV, None)
        if env is not None:
            os.environ[cli.PRECISION_ENV] = env
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _leaves(value) -> int:
    return sum(map(_leaves, value)) if isinstance(value, list) else 1


def _intersect_entries(value) -> int:
    """One per scalar (a block with a "value") and per matrix or tensor entry."""
    if isinstance(value, dict):
        return ("value" in value) + sum(
            _leaves(v) if k in ("matrix", "tensor") else _intersect_entries(v)
            for k, v in value.items())
    if isinstance(value, list):
        return sum(map(_intersect_entries, value))
    return 0


def _records(command: str, payload) -> int:
    """The number of records a JSON payload holds, one CSV row each."""
    if command in ("bps", "crc"):
        return len(payload)
    if command == "intersect":
        return _intersect_entries(payload)
    if command == "group":
        return sum(len(payload[key]) for key in ("classes", "irreps", "nodes"))
    key = {"roots": "positive_roots", "gw": "invariants", "partition": "terms", "dt": "terms",
           "verify": "checks"}[command]
    return len(payload[key])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(requests())
def test_every_request_keeps_the_cli_contract(request):
    argv, fmt, env = request
    command = argv[0]
    argv = [*argv, "--format", fmt]
    code, out, err = _main(argv, env)

    assert code in range(5)
    assert code != cli.EXIT_VERIFY or command == "verify"
    assert _main(argv, env) == (code, out, err)
    if code == cli.EXIT_OK:
        assert out and not err
    elif code != cli.EXIT_VERIFY:
        assert not out
        if err.startswith("usage: qmckay"):
            assert code == cli.EXIT_ARGS
            assert ARGPARSE_ERROR.fullmatch(err.splitlines()[-1]), err
        else:
            assert err.startswith("qmckay: ") and err.count("\n") == 1, err

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "report")
        assert _main([*argv, "--output", str(path)], env) == (code, "", err)
        if code in (cli.EXIT_OK, cli.EXIT_VERIFY):
            assert path.read_bytes() == out.encode()
        else:
            assert not path.exists()

    if code != cli.EXIT_OK:
        return
    if fmt == "json":
        jsonschema.validate(json.loads(out), BY_COMMAND[command])
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert all(len(row) == len(header) for row in rows)
        json_argv = [*argv[:-1], "json"]
        payload = json.loads(_main(json_argv, env)[1])
        assert len(rows) == _records(command, payload)


# argv tokens for the canonical-argv property: every flag and subcommand,
# near misses of both, and values argparse reads in its own ways
COMMON = ("--group", "--precision", "--format", "--output")
COMMAND_TOKENS = (*FLAGS, "verif", "Verify", "verify ", "crcs", "", "-h", "--help")
FLAG_TOKENS = (
    *COMMON, *VALUES, "--gro", "--deg", "--form", "--max-q", "--lambda", "--prec", "--out",
    "--group=T", "--degree=5", "--format=csv", "-h", "--help", "--", "-g",
)
VALUE_TOKENS = (
    "T", "C:3", "E8", "json", "csv", "text", "xml", "JSON", "0", "3", "4", "5", " 5", "5 ",
    "+2", "1_0", "\u0663", "-1", "", "1e3", "--group", "-", "report.json",
)
# the values each flag mostly takes: 0 to ٣ (int() reads all of them) for
# an integer flag
OWN_VALUES = {"--group": VALUE_TOKENS[:3], "--format": VALUE_TOKENS[3:7],
              "--output": VALUE_TOKENS[:6]}
_PARSER = cli.build_parser()


def _canonical(argv) -> bool:
    """Whether argv has the canonical form, spelled out apart from `cli`."""
    command, pairs = argv[0], argv[1:]
    if command not in FLAGS or len(pairs) % 2:
        return False
    ints = {*FLAGS[command], "--precision"}
    for flag, value in zip(pairs[::2], pairs[1::2]):
        if flag not in {*COMMON, *ints} or value.startswith("-"):
            return False
        if flag in ints:
            try:
                int(value)
            except ValueError:
                return False
        if flag == "--format" and value not in ("json", "csv", "text"):
            return False
    return "--group" in pairs[::2]


@st.composite
def argvs(draw):
    """A subcommand token, then mostly (flag, value) pairs, some of them
    repeated or of another subcommand, and now and then a lone token."""
    argv = [draw(st.sampled_from((*FLAGS, *COMMAND_TOKENS)))]
    own = [*COMMON, *FLAGS.get(argv[0], ())]
    if draw(st.integers(0, 4)):
        argv += ["--group", draw(st.sampled_from(VALUE_TOKENS[:3]))]
    for _ in range(draw(st.integers(0, 4))):
        if not draw(st.integers(0, 7)):
            argv.append(draw(st.sampled_from((*FLAG_TOKENS, *VALUE_TOKENS))))
        elif draw(st.integers(0, 3)):
            flag = draw(st.sampled_from(own))
            argv += [flag, draw(st.sampled_from(OWN_VALUES.get(flag, VALUE_TOKENS[8:17])))]
        else:
            argv += [draw(st.sampled_from((*own, *FLAG_TOKENS))),
                     draw(st.sampled_from(VALUE_TOKENS))]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argvs())
@example(["verify", "--gro", "T"])
@example(["verify", "--group=T"])
@example(["crc", "--group", "T", "--degree", "-1"])
@example(["roots", "--group", "T", "--format", "xml"])
def test_a_canonical_argv_reads_as_argparse_reads_it(argv):
    fast = cli._canonical_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            parsed = _PARSER.parse_args(argv)
    except SystemExit:
        assert fast is None
        return
    assert (fast is not None) == _canonical(argv)
    if fast is not None:
        assert vars(fast) == vars(parsed)
