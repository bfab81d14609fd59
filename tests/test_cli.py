"""Command line contract: parsing, exit codes, schemas, determinism."""

import ast
import csv
import errno
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import jsonschema
import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmckay.cli as cli
import qmckay.commands.intersect as intersect_command
import qmckay.crc as crc
import qmckay.gwtheory as gwtheory
import qmckay.intersect as intersect
import qmckay.modular as modular
import qmckay.rootsys as rootsys
import qmckay.schemas as schemas
from qmckay.cli import (
    EXIT_ARGS,
    EXIT_GROUP,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY,
    Report,
    UnsupportedGroupError,
    canonical_token,
    main,
    parse_group,
    render,
)
from qmckay.errors import InternalConsistencyError
from qmckay.grouprep import GroupSpec, correspondence, root_fibers, root_system_of
from qmckay.rootsys import RootSystem
from qmckay.schemas import BY_COMMAND
from qmckay.series import MultiSeries

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- group grammar -------------------------------------------------------------


@pytest.mark.parametrize("token, spec", [
    ("C:2", GroupSpec.cyclic(2)),
    ("c:5", GroupSpec.cyclic(5)),
    ("D:3", GroupSpec.dihedral(3)),
    ("T", GroupSpec.tetrahedral()),
    ("tetrahedral", GroupSpec.tetrahedral()),
    ("O", GroupSpec.octahedral()),
    ("I", GroupSpec.icosahedral()),
    ("A3", GroupSpec.cyclic(2)),
    ("A5", GroupSpec.cyclic(3)),
    ("a7", GroupSpec.cyclic(4)),
    ("D4", GroupSpec.dihedral(2)),
    ("D5", GroupSpec.dihedral(3)),
    ("E6", GroupSpec.tetrahedral()),
    ("E7", GroupSpec.octahedral()),
    ("E8", GroupSpec.icosahedral()),
    # the rank is read as an int
    ("E06", GroupSpec.tetrahedral()),
    ("e007", GroupSpec.octahedral()),
    ("E0008", GroupSpec.icosahedral()),
])
def test_parse_group_grammar(token, spec):
    assert parse_group(token) == spec


@pytest.mark.parametrize("token", [
    "A1", "A2", "A4", "D3", "D2", "E5", "E9", "C:1", "C:0", "D:1",
])
def test_parse_group_unsupported(token):
    with pytest.raises(UnsupportedGroupError):
        parse_group(token)


@pytest.mark.parametrize("token", ["X9", "banana", "", "C:", "A"])
def test_parse_group_unparseable(token):
    with pytest.raises(ValueError):
        parse_group(token)


# token, str(spec), |G|, root system of the binary cover
FAMILY_FACTS = (
    [(f"C:{k}", f"cyclic({k})", k, f"A{2 * k - 1}") for k in range(2, 10)]
    + [(f"D:{m}", f"dihedral({m})", 2 * m, f"D{m + 2}") for m in range(2, 10)]
    + [("T", "tetrahedral", 12, "E6"), ("O", "octahedral", 24, "E7"),
       ("I", "icosahedral", 60, "E8")]
)


def test_canonical_tokens_round_trip():
    for token, name, order, ade in FAMILY_FACTS:
        spec = parse_group(token)
        assert canonical_token(spec) == token
        assert (str(spec), spec.order, str(root_system_of(spec))) == (name, order, ade)


_A_ALIASES = ("A-aliases name the binary cover's root system, so only odd ranks >= 3 occur "
              "(A3 = C:2, A5 = C:3, ...)")


@pytest.mark.parametrize("token, code, line", [
    ("A1", EXIT_GROUP, f"unsupported group: A1: {_A_ALIASES}"),
    ("A4", EXIT_GROUP, f"unsupported group: A4: {_A_ALIASES}"),
    ("D3", EXIT_GROUP, "unsupported group: D3: D-aliases start at D4 (= D:2)"),
    ("E5", EXIT_GROUP, "unsupported group: E5: exceptional aliases are E6, E7, E8"),
    ("E9", EXIT_GROUP, "unsupported group: E9: exceptional aliases are E6, E7, E8"),
    ("C:1", EXIT_GROUP, "unsupported group: C:1: the cyclic parameter must be at least 2"),
    ("D:1", EXIT_GROUP, "unsupported group: D:1: the dihedral parameter must be at least 2"),
    ("X9", EXIT_ARGS, "cannot parse group 'X9'"),
    ("", EXIT_ARGS, "cannot parse group ''"),
])
def test_group_errors_print_one_exact_line(capsys, token, code, line):
    assert run(capsys, ["bps", "--group", token]) == (code, "", f"qmckay: {line}\n")


# -- exit codes ------------------------------------------------------------------


def test_unsupported_group_exits_three(capsys):
    for token in ("A4", "D3", "E5", "C:1"):
        code, out, err = run(capsys, ["bps", "--group", token])
        assert code == EXIT_GROUP
        assert out == ""
        assert "unsupported group" in err


def test_unparseable_group_exits_two(capsys):
    code, _, err = run(capsys, ["bps", "--group", "X9"])
    assert code == EXIT_ARGS
    assert "cannot parse" in err


def test_missing_group_exits_two(capsys):
    code, _, _ = run(capsys, ["bps"])
    assert code == EXIT_ARGS


def test_missing_command_exits_two(capsys):
    code, _, _ = run(capsys, [])
    assert code == EXIT_ARGS


def test_low_crc_degree_exits_two(capsys):
    code, _, err = run(capsys, ["crc", "--group", "D5", "--degree", "2"])
    assert code == EXIT_ARGS
    assert "--degree" in err


def test_negative_cap_exits_two(capsys):
    code, _, err = run(capsys, ["gw", "--group", "D5", "--lambda-order", "-1"])
    assert code == EXIT_ARGS


# every integer flag of every subcommand: the value just below its least
# value, and the one stderr line that value gets
BOUNDS = {
    ("gw", "--max-q-degree"): (-1, "qmckay: --max-q-degree must be nonnegative"),
    ("gw", "--lambda-order"): (-1, "qmckay: --lambda-order must be nonnegative"),
    ("crc", "--degree"): (2, "qmckay: --degree must be at least 3"),
    **{(command, flag): (-1, f"qmckay: {flag} must be nonnegative")
       for command in ("partition", "dt", "verify")
       for flag in ("--max-q-degree", "--q-series-degree")},
}


def test_the_subcommand_table_is_the_one_list():
    names = [name for name, _, _, _ in cli.SUBCOMMANDS]
    assert names == ["roots", "group", "bps", "gw", "partition", "dt", "intersect", "crc",
                     "verify"]
    assert set(names) == set(BY_COMMAND) == set(cli.COMMANDS)
    (choices,) = [action.choices for action in cli.build_parser()._actions
                  if isinstance(action.choices, dict)]
    assert list(choices) == names
    assert {(name, flag) for name, _, _, flags in cli.SUBCOMMANDS
            for flag, _, _, _ in flags} == set(BOUNDS)


@pytest.mark.parametrize("command, flag", sorted(BOUNDS))
def test_each_integer_flag_is_refused_below_its_least_value(capsys, command, flag):
    below, line = BOUNDS[command, flag]
    argv = [command, "--group", "C:2", flag]
    assert run(capsys, argv + [str(below)]) == (EXIT_ARGS, "", line + "\n")
    assert cli._validate_bounds(cli.build_parser().parse_args(argv + [str(below + 1)])) is None


def test_the_first_bad_flag_of_the_row_is_the_one_reported(capsys):
    argv = ["gw", "--group", "C:1", "--lambda-order", "-1", "--max-q-degree", "-1"]
    assert run(capsys, argv) == (EXIT_ARGS, "", "qmckay: --max-q-degree must be nonnegative\n")


def test_verify_lambda_order_is_deprecated(capsys):
    # removed after its deprecation: argparse now refuses the flag
    base = ["verify", "--group", "C:2", "--max-q-degree", "1", "--q-series-degree", "1"]
    code, _, err = run(capsys, base)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, base + ["--lambda-order", "3"])
    assert (code, out) == (EXIT_ARGS, "")
    assert "--lambda-order" in err


def test_bad_precision_env_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("QMCKAY_PRECISION", "banana")
    code, _, err = run(capsys, ["roots", "--group", "T"])
    assert code == EXIT_ARGS
    assert "QMCKAY_PRECISION" in err


@pytest.mark.parametrize("env", ["5", "10001", str(10**23)])
def test_tiny_precision_rejected(capsys, monkeypatch, env):
    monkeypatch.setenv("QMCKAY_PRECISION", env)
    code, _, _ = run(capsys, ["roots", "--group", "T"])
    assert code == EXIT_ARGS


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "T"],
    ["crc", "--group", "T", "--degree", "3"],
])
def test_huge_precision_flag_rejected(capsys, argv):
    code, out, err = run(capsys, argv + ["--precision", str(10**23)])
    assert code == EXIT_ARGS
    assert out == ""
    assert "precision" in err


def test_verify_passes_at_the_largest_precision(capsys):
    code, out, _ = run(capsys, ["verify", "--group", "T", "--precision", str(cli.MAX_PRECISION)])
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "pass"


def test_intersect_builds_the_threefold_tensors_in_threefold_integrals(capsys, monkeypatch):
    misses = {}

    def counting(name, fn):
        def wrapper(spec):
            before = intersect._threefold.cache_info().misses
            result = fn(spec)
            misses[name] = intersect._threefold.cache_info().misses - before
            return result
        return wrapper

    for name in ("threefold_integrals", "classical_potential"):
        monkeypatch.setattr(intersect, name, counting(name, getattr(intersect, name)))
    intersect._threefold.cache_clear()
    code, _, _ = run(capsys, ["intersect", "--group", "D5"])
    assert code == EXIT_OK
    assert misses == {"threefold_integrals": 1, "classical_potential": 0}


def test_precision_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("QMCKAY_PRECISION", "banana")
    code, out, _ = run(capsys, ["roots", "--group", "T", "--precision", "40"])
    assert code == EXIT_OK
    assert json.loads(out)["ade"] == "E6"


def test_verification_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli.crc, "crc_consistency",
                        lambda spec, dps: Fraction(1, 3))
    code, out, _ = run(capsys, [
        "verify", "--group", "D5", "--max-q-degree", "2", "--q-series-degree", "2",
    ])
    assert code == EXIT_VERIFY
    payload = json.loads(out)
    assert payload["status"] == "fail"
    failed = {c["name"]: c["detail"] for c in payload["checks"] if c["status"] == "fail"}
    assert failed == {"crc-consistency": "resolution vs orbifold residual 0.33333"}


def test_perturbed_cartan_matrix_fails_only_its_checks(capsys, monkeypatch):
    honest = rootsys.root_system

    def perturbed(ade):
        rs = honest(ade)
        cartan = [list(row) for row in rs.cartan]
        cartan[1][0] -= 1
        fields = {name: getattr(rs, name) for name in rs.__match_args__}
        return RootSystem(**fields | {"cartan": tuple(map(tuple, cartan))})

    monkeypatch.setattr(rootsys, "root_system", perturbed)
    code, out, _ = run(capsys, [
        "verify", "--group", "D5", "--max-q-degree", "2", "--q-series-degree", "2",
    ])
    assert code == EXIT_VERIFY
    failed = {c["name"]: c["detail"] for c in json.loads(out)["checks"]
              if c["status"] == "fail"}
    assert failed == {
        "root-sum-identity": "sum over R+ of a a^T != h C^-1",
        "surface-two-point": "surface two-point != -C^-1",
    }


def test_perturbed_cubic_fails_only_crc_consistency(capsys, monkeypatch):
    honest = intersect.classical_potential

    def perturbed(spec):
        data = honest(spec)
        cubic = [[list(row) for row in plane] for plane in data.cubic]
        for a, b, c in {(0, 0, 1), (0, 1, 0), (1, 0, 0)}:
            cubic[a][b][c] += Fraction(1, 4)
        fields = {name: getattr(data, name) for name in data.__match_args__}
        return type(data)(**fields | {"cubic": cubic})

    # i^3 cubic(L, L, L) moves off the reals, so the resolution side no
    # longer lifts to a rational: the witness prime proves it differs from
    # the rational orbifold side
    monkeypatch.setattr(intersect, "classical_potential", perturbed)
    with pytest.raises(InternalConsistencyError, match="not rational"):
        cli.crc.crc_consistency(GroupSpec.dihedral(3))
    code, out, _ = run(capsys, [
        "verify", "--group", "D5", "--max-q-degree", "2", "--q-series-degree", "2",
    ])
    assert code == EXIT_VERIFY
    failed = {c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"}
    assert failed == {"crc-consistency"}


def test_perturbed_orbifold_side_gives_the_exact_residual(monkeypatch):
    spec = GroupSpec.dihedral(3)
    honest = cli.crc.orbifold_potential

    def perturbed(spec, degree, dps=cli.crc.DEFAULT_DPS):
        pot = honest(spec, degree, dps)
        rationals = dict(pot.rationals)
        rationals[(1, 2)] += Fraction(1, 4)  # x_r1 x_s^2, third partial x 2!
        fields = {name: getattr(pot, name) for name in pot.__match_args__}
        return type(pot)(**fields | {"rationals": rationals})

    monkeypatch.setattr(cli.crc, "orbifold_potential", perturbed)
    assert cli.crc.crc_consistency(spec) == mp.mpf(1) / 2


def test_internal_failure_exits_four(capsys, monkeypatch):
    def boom(spec):
        raise InternalConsistencyError("synthetic")
    monkeypatch.setattr(gwtheory, "bps_table", boom)
    code, out, err = run(capsys, ["bps", "--group", "D5"])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "internal consistency" in err


def _raise_type_error(*args):
    raise TypeError("synthetic")


@pytest.mark.parametrize("argv, layer, name", [
    (["verify", "--group", "C:2"], intersect, "pairing_inverse_check"),
    (["bps", "--group", "D5"], gwtheory, "bps_table"),
], ids=["verify", "bps"])
def test_unexpected_error_exits_four_with_one_line(capsys, monkeypatch, argv, layer, name):
    # a programming error in a layer is no failed verification (exit 1) and
    # no traceback: one line, nothing on stdout
    monkeypatch.setattr(layer, name, _raise_type_error)
    code, out, err = run(capsys, argv)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "qmckay: internal error: TypeError: synthetic\n"


def test_a_float_in_a_payload_exits_four_with_one_line(capsys, monkeypatch):
    honest = cli.COMMANDS["roots"]

    def with_a_float(spec, args):
        report = honest(spec, args)
        fields = {name: getattr(report, name) for name in report.__match_args__}
        return Report(**fields | {"payload": report.payload | {"coxeter_number": 1.5}})

    monkeypatch.setitem(cli.COMMANDS, "roots", with_a_float)
    code, out, err = run(capsys, ["roots", "--group", "E8"])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("qmckay: internal error: TypeError: payload value 1.5 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["command", "render"])
def test_out_of_memory_exits_two_with_one_line(capsys, monkeypatch, where):
    def exhausted(*args):
        raise MemoryError

    if where == "command":
        monkeypatch.setitem(cli.COMMANDS, "roots", exhausted)
    else:
        monkeypatch.setattr(cli, "render", exhausted)
    code, out, err = run(capsys, ["roots", "--group", "E8"])
    assert code == EXIT_ARGS
    assert out == ""
    assert err == "qmckay: out of memory: roots --group E8\n"


def test_out_of_memory_in_a_verify_check_exits_two_with_one_line(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(gwtheory, "partition_function_by_roots", exhausted)
    code, out, err = run(capsys, ["verify", "--group", "T"])
    assert code == EXIT_ARGS
    assert out == ""
    assert err == "qmckay: out of memory: verify --group T\n"


def _address_space_100mb():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux-only")
def test_out_of_memory_in_a_limited_child_is_one_line():
    # the limit is set in the child only, between fork and exec
    result = subprocess.run(
        [sys.executable, "-m", "qmckay.cli", "roots", "--group", "C:400"],
        capture_output=True, text=True, timeout=120, env=_src_env(),
        preexec_fn=_address_space_100mb,
    )
    assert result.returncode == EXIT_ARGS
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["qmckay: out of memory: roots --group C:400"]
    assert "Traceback" not in result.stderr


LOW_PRECISION_GROUPS = ["C:5", "D:5", "T", "O", "I"]


@pytest.mark.parametrize("precision", ["10", "15"])
@pytest.mark.parametrize("group", LOW_PRECISION_GROUPS)
@pytest.mark.parametrize("command", ["group", "bps", "intersect"])
def test_low_precision_succeeds(capsys, monkeypatch, command, group, precision):
    # character sums are exact, so the working precision cannot make the
    # table checks fail; bps and intersect print exact data only
    monkeypatch.delenv("QMCKAY_PRECISION", raising=False)
    code, out, err = run(capsys, [command, "--group", group, "--precision", precision])
    assert code == EXIT_OK, err
    jsonschema.validate(json.loads(out), BY_COMMAND[command])
    if command != "group":
        _, default_out, _ = run(capsys, [command, "--group", group])
        assert out == default_out


# -- payload schemas ------------------------------------------------------------

FAST_FLAGS = {
    "gw": ["--max-q-degree", "3", "--lambda-order", "2"],
    "partition": ["--max-q-degree", "3", "--q-series-degree", "2"],
    "dt": ["--max-q-degree", "3", "--q-series-degree", "2"],
    "crc": ["--degree", "4"],
    "verify": ["--max-q-degree", "3", "--q-series-degree", "2"],
}


@pytest.mark.parametrize("group", ["D5", "C:3"])
@pytest.mark.parametrize("command", sorted(BY_COMMAND))
def test_json_payloads_validate(capsys, command, group):
    argv = [command, "--group", group] + FAST_FLAGS.get(command, [])
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK, err
    jsonschema.validate(json.loads(out), BY_COMMAND[command])


def _json_text(payload) -> str:
    return render(Report(payload=payload, csv_fields=[], csv_rows=(), text_lines=()), "json")


@pytest.mark.parametrize("group", ["D5", "C:3"])
@pytest.mark.parametrize("command", sorted(BY_COMMAND))
def test_json_writer_matches_json_dumps_on_every_payload(command, group):
    # the writer against the library encoder on each real payload shape,
    # such as the None among group's nodes, which the goldens pin only as bytes
    args = cli.build_parser().parse_args([command, "--group", group] + FAST_FLAGS.get(command, []))
    args.precision = cli.DEFAULT_DPS
    payload = cli.COMMANDS[command](parse_group(group), args).payload
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


_TEXT = st.text(st.characters() | st.sampled_from('"\\/[]{}:,\n\t\x00\x1f\x7f\u2028\U0001d11e'))
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=16,
)


@settings(max_examples=120, deadline=None)
@given(_JSON_TREES)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


# a few keys, so dicts repeat their keys as partition's term records do: keys
# that need escaping, and "key", which is also drawn as a value
_KEYS = st.sampled_from(["key", '"', " ", "\u00e9", "a\\b", "degree"])
_RECORDS = st.recursive(
    st.none() | st.integers() | _KEYS,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(_KEYS, inner, max_size=6),
    max_leaves=40,
)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.dictionaries(_KEYS, _RECORDS, max_size=6), max_size=8) | _RECORDS)
def test_json_writer_matches_json_dumps_on_repeated_keys(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_json_writer_quotes_each_key_once_per_render():
    quoted = Counter()

    def quote(text):
        quoted[text] += 1
        return json.encoder.encode_basestring_ascii(text)

    records = [{"degree": d, "value": "1/2", "nested": {"value": "x"}} for d in range(3)]
    out = []
    cli._write_json(records, out.append, quote, cli._KeyHeads(quote), "\n")
    assert "".join(out) == json.dumps(records, indent=2, sort_keys=True)
    assert quoted == {"degree": 1, "nested": 1, "value": 1, "1/2": 3, "x": 3}


@pytest.mark.parametrize("payload", [
    1.5, [0, 2.0], {"x": Fraction(1, 2)}, {1: "a"}, {"x": {None: 0}},
    MappingProxyType({"x": 1}), {"x": {1, 2}}, b"bytes",
], ids=["float", "float-in-list", "fraction", "int-key", "none-key", "mappingproxy", "set",
        "bytes"])
def test_json_writer_refuses_what_no_payload_holds(payload):
    with pytest.raises(TypeError, match="payload"):
        _json_text(payload)


# SHA-256 of json.dumps(BY_COMMAND, sort_keys=True): every schema value,
# which perfbench/oracle.py validates the benchmark's JSON output against
BY_COMMAND_SHA256 = "4e2f4e76d3592496a92776dc64bdba6a4f22a8c6113edb6f36e8cbfbeceb8adc"


def test_schemas_are_pinned():
    blob = json.dumps(BY_COMMAND, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == BY_COMMAND_SHA256


def _object_schemas(node):
    if isinstance(node, dict):
        if "properties" in node:
            yield node
        for value in node.values():
            yield from _object_schemas(value)
    elif isinstance(node, list):
        for value in node:
            yield from _object_schemas(value)


def test_every_object_schema_requires_exactly_its_fields():
    roots = [v for k, v in vars(schemas).items() if isinstance(v, dict) and not k.startswith("__")]
    objects = {id(o): o for o in _object_schemas(roots)}.values()
    assert len(objects) == 20
    for obj in objects:
        assert obj["type"] == "object"
        assert obj["required"] == list(obj["properties"])
        assert obj["additionalProperties"] is False


def test_verify_passes_for_sigma3(capsys):
    code, out, _ = run(capsys, [
        "verify", "--group", "D5", "--max-q-degree", "3", "--q-series-degree", "2",
    ])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert len(payload["checks"]) == 12
    assert all(c["status"] == "pass" for c in payload["checks"])


# -- frozen payload fragments ----------------------------------------------------


def test_bps_payload_frozen_for_sigma3(capsys):
    _, out, _ = run(capsys, ["bps", "--group", "D5"])
    payload = json.loads(out)
    assert payload == [
        {"class": [0, 1], "n0": "4", "fiber_size": 8},
        {"class": [0, 2], "n0": "1/2", "fiber_size": 1},
        {"class": [1, 0], "n0": "1", "fiber_size": 2},
        {"class": [1, 1], "n0": "2", "fiber_size": 4},
        {"class": [1, 2], "n0": "1", "fiber_size": 2},
    ]


def test_partition_degree_zero_is_constant_one(capsys):
    _, out, _ = run(capsys, [
        "partition", "--group", "D5", "--max-q-degree", "0",
        "--q-series-degree", "0",
    ])
    payload = json.loads(out)
    assert payload["terms"] == [{
        "exponents": {}, "t_power": 0, "numerator": "1", "denominator": "1",
    }]


def test_gw_payload_contains_multiple_cover(capsys):
    _, out, _ = run(capsys, [
        "gw", "--group", "D5", "--max-q-degree", "2", "--lambda-order", "0",
    ])
    rows = json.loads(out)["invariants"]
    by_key = {(tuple(r["class"]), r["genus"]): r["coefficient"] for r in rows}
    assert by_key[((2, 0), 0)] == "1/8"
    assert by_key[((0, 1), 0)] == "4"
    assert by_key[((1, 1), 1)] == "1/6"


def test_intersect_pairing_frozen(capsys):
    _, out, _ = run(capsys, ["intersect", "--group", "D5"])
    payload = json.loads(out)
    assert payload["pairing"]["matrix"] == [["-3", "1"], ["1", "-1"]]
    assert payload["pairing"]["t_power"] == 1
    assert payload["threefold"]["zero_point"] == {"value": "1/6", "t_power": -3}


def test_crc_payload_has_rational_guesses(capsys):
    _, out, _ = run(capsys, ["crc", "--group", "D5", "--degree", "3"])
    payload = json.loads(out)
    assert {row["rational_guess"] for row in payload} == {"1/2", "1/18"}


def test_crc_prints_exact_rationals_past_the_old_denominator_cap(capsys):
    _, out, _ = run(capsys, ["crc", "--group", "D:3", "--degree", "8"])
    rows = [row for row in json.loads(out) if row["exponents"] == {"r1": 8}]
    assert [row["rational_guess"] for row in rows] == ["-559/4898880"]


def test_roots_payload_counts(capsys):
    _, out, _ = run(capsys, ["roots", "--group", "C:2"])
    payload = json.loads(out)
    assert payload["ade"] == "A3"
    assert payload["positive_root_count"] == 6
    assert len(payload["positive_roots"]) == 6


# -- rendering --------------------------------------------------------------------


def test_verify_shares_one_partition_function(capsys, monkeypatch):
    calls = {"partition_function": 0, "log": 0}
    partition_function = gwtheory.partition_function
    log = MultiSeries.log

    def counting_partition_function(*args, **kwargs):
        calls["partition_function"] += 1
        return partition_function(*args, **kwargs)

    def counting_log(self):
        calls["log"] += 1
        return log(self)

    monkeypatch.setattr(gwtheory, "partition_function", counting_partition_function)
    monkeypatch.setattr(MultiSeries, "log", counting_log)
    code, out, _ = run(capsys, ["verify", "--group", "C:3", "--max-q-degree", "3",
                                "--q-series-degree", "3"])
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "pass"
    assert calls == {"partition_function": 1, "log": 1}


def test_verify_builds_one_bps_table(capsys, monkeypatch):
    calls = {"bps_table": 0}
    table = gwtheory.bps_table

    def counting_bps_table(*args, **kwargs):
        calls["bps_table"] += 1
        return table(*args, **kwargs)

    monkeypatch.setattr(gwtheory, "bps_table", counting_bps_table)
    root_fibers.cache_clear()
    code, out, _ = run(capsys, ["verify", "--group", "C:3", "--max-q-degree", "3",
                                "--q-series-degree", "3"])
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "pass"
    # bps-fibers and bps-recovery share one table, and partition_function
    # reads the root scan behind it instead of building another
    assert calls == {"bps_table": 1}
    assert root_fibers.cache_info().misses == 1


@pytest.mark.parametrize("group, order", [("T", 24), ("D:6", 24), ("C:16", 64)])
def test_verify_searches_primes_of_one_order(capsys, monkeypatch, group, order):
    # order = 2N, N the order of the group's character tables
    orders = set()
    prime = modular.prime
    monkeypatch.setattr(modular, "prime", lambda m, k: orders.add(m) or prime(m, k))
    correspondence.cache_clear()
    crc._class_products.cache_clear()
    code, out, _ = run(capsys, ["verify", "--group", group, "--max-q-degree", "2",
                                "--q-series-degree", "2"])
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "pass"
    assert orders == {order}
    assert 2 * correspondence(cli.parse_group(group)).group.table[0][0].n == order


@pytest.mark.parametrize("fmt, expected_calls", [("json", 0), ("csv", 0), ("text", 1)])
def test_text_lines_are_built_only_for_text(capsys, monkeypatch, fmt, expected_calls):
    calls = {"format_text": 0}
    format_text = MultiSeries.format_text

    def counting_format_text(self, *args, **kwargs):
        calls["format_text"] += 1
        return format_text(self, *args, **kwargs)

    monkeypatch.setattr(MultiSeries, "format_text", counting_format_text)
    code, out, _ = run(capsys, ["partition", "--group", "C:3", "--max-q-degree", "2",
                                "--q-series-degree", "2", "--format", fmt])
    assert code == EXIT_OK and out
    assert calls == {"format_text": expected_calls}


def test_two_precisions_build_each_group_once(capsys, monkeypatch):
    monkeypatch.delenv("QMCKAY_PRECISION", raising=False)
    correspondence.cache_clear()
    root_fibers.cache_clear()
    for precision in (["--precision", "30"], []):
        for argv in (
            ["group", "--group", "D:5"],
            ["crc", "--group", "D:5", "--degree", "3"],
            ["verify", "--group", "D:5", "--max-q-degree", "2", "--q-series-degree", "2"],
            ["bps", "--group", "D:5"],
            ["gw", "--group", "D:5", "--max-q-degree", "2"],
            ["intersect", "--group", "D:5"],
        ):
            code, _, _ = run(capsys, argv + precision)
            assert code == EXIT_OK
    assert correspondence.cache_info().misses == 1
    assert root_fibers.cache_info().misses == 1


@pytest.mark.parametrize("precision", ["10", "12"])
def test_crc_consistency_is_exact_at_low_precision(capsys, precision):
    # both sides are lifted rationals, so the precision cannot move the check
    argv = ["verify", "--group", "D:2", "--max-q-degree", "2", "--q-series-degree", "2"]
    details = []
    for extra in (["--precision", precision], []):
        code, out, _ = run(capsys, argv + extra)
        assert code == EXIT_OK
        details.append(next(c["detail"] for c in json.loads(out)["checks"]
                            if c["name"] == "crc-consistency"))
    assert details[0] == details[1]
    assert "residual 0;" in details[0] and "tolerance" not in details[0]


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["crc", "--group", "D5", "--degree", "4"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ["verify", "--group", "C:2", "--max-q-degree", "2",
            "--q-series-degree", "2", "--format", "text"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_output_file_matches_stdout(capsys, tmp_path):
    argv = ["bps", "--group", "D5"]
    _, stdout_text, _ = run(capsys, argv)
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, argv + ["--output", str(target)])
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text() == stdout_text


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["verify", "--group", "T"],
    ["roots", "--group", "E8", "--format", "text"],
], ids=["verify-json", "roots-text"])
def test_a_stdout_that_cannot_be_written_exits_two(argv):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "qmckay.cli", *argv], stdout=full, stderr=subprocess.PIPE,
            text=True, timeout=120, env=_src_env(),
        )
    assert result.returncode == EXIT_ARGS
    assert result.stderr == f"qmckay: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"


def test_unwritable_output_exits_two(capsys, tmp_path):
    for target in (tmp_path / "no" / "such" / "x.json", tmp_path):
        code, out, err = run(capsys, ["roots", "--group", "T", "--output", str(target)])
        assert (code, out) == (EXIT_ARGS, "")
        assert err.startswith(f"qmckay: cannot write {target}")
        assert err.count("\n") == 1


def test_csv_output_parses(capsys):
    _, out, _ = run(capsys, ["bps", "--group", "D5", "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    assert set(rows[0]) == {"class_0", "class_1", "n0", "fiber_size"}
    assert rows[0]["n0"] == "4"


def _intersect_report(group):
    args = cli.build_parser().parse_args(["intersect", "--group", group, "--format", "csv"])
    return cli.COMMANDS["intersect"](parse_group(group), args)


def _nested_intersect_rows(payload):
    """The intersect CSV rows by nested loops over the payload, every field a str."""
    blocks = [(f"{name}.{part}", payload[name][part]) for name in ("threefold", "surface")
              for part in ("zero_point", "two_point", "three_point")]
    blocks += [("pairing", payload["pairing"]),
               ("classical.delta_e_cubed", payload["classical"]["delta_e_cubed"])]
    blocks += [("classical.delta_pair", entry) for entry in payload["classical"]["delta_pair"]]
    rows = []
    for block, data in blocks:
        t = str(data["t_power"])
        if "value" in data:
            rows.append((block, data.get("class", ""), "", "", data["value"], t))
        for i, row in enumerate(data.get("matrix", ())):
            for j, x in enumerate(row):
                rows.append((block, str(i), str(j), "", x, t))
        for i, plane in enumerate(data.get("tensor", ())):
            for j, row in enumerate(plane):
                for k, x in enumerate(row):
                    rows.append((block, str(i), str(j), str(k), x, t))
    return rows


def _intersect_csv_rows(payload):
    return [tuple(row) for row in intersect_command._intersect_rows(payload)]


@pytest.mark.parametrize("group", ["C:2", "D:3", "T", "C:6"])
def test_intersect_csv_rows_are_strings_in_nested_loop_order(group):
    payload = _intersect_report(group).payload
    rows = _intersect_csv_rows(payload)
    assert all(type(field) is str for row in rows for field in row)
    assert rows == _nested_intersect_rows(payload)


def test_intersect_csv_rows_index_a_block_that_is_not_square():
    def scalar(value, **extra):
        return {"value": value, "t_power": -1, **extra}

    def block(matrix, tensor):
        return {"zero_point": scalar("1/2"), "two_point": {"matrix": matrix, "t_power": 0},
                "three_point": {"tensor": tensor, "t_power": 2}}

    payload = {
        "threefold": block([["1", "2", "3", "4"]], [[["5"], ["6", "7", "8"]], [["9"]]]),
        "surface": block([["1"], ["2"], ["3"]], [[["4", "5"]], [["6"]], [["7"]], []]),
        "pairing": {"matrix": [["1", "2"], [], ["3"]], "t_power": 1},
        "classical": {"delta_e_cubed": scalar("3"), "delta_pair": [scalar("4", **{"class": "g1"})]},
    }
    assert _intersect_csv_rows(payload) == _nested_intersect_rows(payload)


def test_intersect_csv_runs_no_python_code_per_tensor_entry():
    report = _intersect_report("C:6")
    entries = sum(len(row) for name in ("threefold", "surface")
                  for plane in report.payload[name]["three_point"]["tensor"] for row in plane)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"  # a Python function call or a generator resumed

    sys.setprofile(count)
    try:
        render(report, "csv")
    finally:
        sys.setprofile(None)
    assert 0 < calls < entries


@pytest.mark.parametrize("argv, expected", [
    ("gw --group D:5 --max-q-degree 0 --format csv",
     "class_0,class_1,class_2,genus,lambda_power,coefficient\n"),
    ("crc --group C:2 --degree 3", "[]\n"),
    ("crc --group C:2 --degree 3 --format csv",
     "degree,x_g1,coefficient,rational_guess\n"),
    ("crc --group C:2 --degree 3 --format text",
     "C:2: orbifold potential coefficients through degree 3 (variables: g1)\n"),
    ("partition --group T --max-q-degree 0 --q-series-degree 0 --format csv",
     "q1,q2,q3,Q,t_power,numerator,denominator\n0,0,0,0,0,1,1\n"),
])
def test_small_tables_print_their_full_header(capsys, monkeypatch, argv, expected):
    # the CSV header comes from the command, not from a first record
    monkeypatch.delenv("QMCKAY_PRECISION", raising=False)
    code, out, _ = run(capsys, argv.split())
    assert (code, out) == (EXIT_OK, expected)


def test_text_output_is_prose(capsys):
    _, out, _ = run(capsys, ["group", "--group", "D5", "--format", "text"])
    assert out.startswith("D:3: |G| = 6")
    assert "classes (label size order chi_V age):" in out


# -- process-level smoke -----------------------------------------------------------


def test_module_invocation_round_trip():
    result = subprocess.run(
        [sys.executable, "-m", "qmckay.cli", "bps", "--group", "D5"],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)[0]["n0"] == "4"


@pytest.mark.skipif(shutil.which("qmckay") is None,
                    reason="console script not on PATH")
def test_console_script_round_trip():
    result = subprocess.run(
        ["qmckay", "roots", "--group", "E6"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["positive_root_count"] == 36


def _src_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("QMCKAY_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_verify_passes_on_a_stress_group_in_a_subprocess():
    # C:16's per-root oracle multiplies 480 factors; as a product tree the
    # whole request takes well under a second
    result = subprocess.run(
        [sys.executable, "-m", "qmckay.cli", "verify", "--group", "C:16"],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert result.returncode == EXIT_OK, result.stderr
    assert json.loads(result.stdout)["status"] == "pass"


def test_console_entry_point_from_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qmckay"]
    module, func = target.split(":")
    result = subprocess.run(
        [sys.executable, "-c", f"from {module} import {func}; {func}()",
         "roots", "--group", "E6"],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["positive_root_count"] == 36


# reports whether mpmath was imported by the time `cli.main` returned
_MPMATH_PROBE = """
import contextlib, io, sys
from qmckay import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "mpmath" in sys.modules)
"""


@pytest.mark.parametrize("argv, loaded", [
    (["verify", "--group", "T"], False),
    (["bps", "--group", "D5"], False),
    (["intersect", "--group", "D5"], False),
    (["roots", "--group", "E8"], False),
    (["gw", "--group", "D5", "--max-q-degree", "2", "--lambda-order", "2"], False),
    (["partition", "--group", "D5", "--max-q-degree", "2", "--q-series-degree", "2"], False),
    (["dt", "--group", "D5", "--max-q-degree", "2", "--q-series-degree", "2"], False),
    # crc prints its decimals from the exact rationals
    (["crc", "--group", "T", "--degree", "4"], False),
    pytest.param(["crc", "--group", "T", "--degree", "4", "--format", "csv"], False,
                 id="crc-csv-False"),
    pytest.param(["crc", "--group", "T", "--degree", "4", "--format", "text",
                  "--precision", "10"], False, id="crc-text-precision10-False"),
    pytest.param(["crc", "--group", "T", "--degree", "4", "--precision", "4000"], False,
                 id="crc-precision4000-False"),
    # chi_V = 1 + 2 cos(2 pi/5) on the order-5 classes is printed as a decimal,
    # from its exact value
    (["group", "--group", "I"], False),
    pytest.param(["group", "--group", "C:5"], False, id="group-C5-False"),
    pytest.param(["group", "--group", "C:20"], False, id="group-C20-False"),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_only_decimal_output_imports_mpmath(argv, loaded):
    result = subprocess.run(
        [sys.executable, "-c", _MPMATH_PROBE, *argv],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", str(loaded)]



# lists which of these stdlib modules the package loaded, import and run
# together, and qmckay.schemas, which only validation needs
_STDLIB_PROBE = """
import contextlib, io, sys
preloaded = set(sys.modules)
from qmckay import cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
watched = {"_json", "argparse", "csv", "dataclasses", "inspect", "json", "qmckay.schemas"}
print(code, *sorted(watched & set(sys.modules) - preloaded))
"""


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["verify", "--group", "T"], ["_json"]),
    (["verify", "--group", "T", "--format", "text"], []),
    (["crc", "--group", "T", "--degree", "4"], ["_json"]),
    (["roots", "--group", "E8"], ["_json"]),
    (["roots", "--group", "E8", "--format", "text"], []),
    (["roots", "--group", "E8", "--format", "csv"], ["csv"]),
    (["crc", "--group", "T", "--degree", "4", "--format", "csv"], ["csv"]),
    # argparse reads every argv that is not canonical, and writes help
    (["--help"], ["argparse"]),
    (["verify", "--gro", "T"], ["_json", "argparse"]),
    (["verify", "--group=T"], ["_json", "argparse"]),
], ids=["import", "verify", "verify-text", "crc", "roots", "roots-text", "roots-csv", "crc-csv",
        "help", "verify-abbreviated", "verify-equals"])
def test_records_and_renderers_load_no_unused_stdlib(argv, loaded):
    result = subprocess.run(
        [sys.executable, "-c", _STDLIB_PROBE, *argv],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", *loaded]


def test_every_benchmark_request_is_read_without_argparse(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    requests = [workloads.PROBE, *(argv for workload in workloads.WORKLOADS.values()
                                   for argv in workload.requests)]
    assert len(requests) == 20
    assert all(cli._canonical_args(argv) is not None for argv in requests)


# imports the module argv[1], runs `main(argv[2:])` when a command follows,
# and lists the layer modules and command modules that were executed; the
# CLI registers the other layers in sys.modules unexecuted, as lazy modules
# of another type, and imports a command module only to run its command
_FOOTPRINT_PROBE = """
import contextlib, importlib, io, sys, types
module = importlib.import_module(sys.argv[1])
code = 0
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = module.main(sys.argv[2:])
layers = ("crc", "exact", "grouprep", "gwtheory", "intersect", "modular", "numeric", "rootsys",
          "series")
commands = ("bps", "crc", "group", "gw", "intersect", "partition", "roots", "verify")
names = [*layers, *("commands." + c for c in commands)]
print(code, *(n for n in names if type(sys.modules.get("qmckay." + n)) is types.ModuleType))
"""


@pytest.mark.parametrize("module, argv, executed", [
    ("qmckay", [], []),
    ("qmckay.cli", [], []),
    ("qmckay.cli", ["crc", "--group", "T", "--degree", "4"],
     ["crc", "grouprep", "modular", "rootsys", "commands.crc"]),
    ("qmckay.cli", ["roots", "--group", "E8"],
     ["grouprep", "modular", "rootsys", "commands.roots"]),
    ("qmckay.cli", ["intersect", "--group", "D:4"],
     ["grouprep", "intersect", "modular", "rootsys", "commands.intersect"]),
    ("qmckay.cli", ["verify", "--group", "T"],
     ["crc", "grouprep", "gwtheory", "intersect", "modular", "rootsys", "series",
      "commands.verify"]),
    # chi_V on the order-5 classes is no integer, and is printed without numeric.as_mpc
    ("qmckay.cli", ["group", "--group", "C:5"],
     ["grouprep", "modular", "rootsys", "commands.group"]),
    ("qmckay.cli", ["bps", "--group", "C:16"],
     ["grouprep", "gwtheory", "modular", "rootsys", "commands.bps"]),
    ("qmckay.cli", ["gw", "--group", "C:3", "--max-q-degree", "2", "--lambda-order", "2"],
     ["grouprep", "gwtheory", "modular", "rootsys", "series", "commands.gw"]),
    ("qmckay.cli", ["partition", "--group", "C:3", "--max-q-degree", "2",
                    "--q-series-degree", "2"],
     ["grouprep", "gwtheory", "modular", "rootsys", "series", "commands.partition"]),
    ("qmckay.cli", ["dt", "--group", "C:3", "--max-q-degree", "2", "--q-series-degree", "2"],
     ["grouprep", "gwtheory", "modular", "rootsys", "series", "commands.partition"]),
], ids=["import-package", "import-cli", "crc", "roots", "intersect", "verify", "group", "bps",
        "gw", "partition", "dt"])
def test_each_command_executes_only_the_layers_it_runs(module, argv, executed):
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, module, *argv],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", *executed]


# the import log of a fresh `python -m qmckay.cli` request, in which the CLI
# is `__main__`: importing `qmckay.cli` as well would execute it a second time
@pytest.mark.parametrize("argv", [
    ["roots", "--group", "C:2"],
    ["group", "--group", "C:5"],
    ["bps", "--group", "C:2"],
    ["gw", "--group", "C:2", "--max-q-degree", "1", "--lambda-order", "0"],
    ["partition", "--group", "C:2", "--max-q-degree", "1", "--q-series-degree", "1"],
    ["dt", "--group", "C:2", "--max-q-degree", "1", "--q-series-degree", "1"],
    ["intersect", "--group", "C:2"],
    ["crc", "--group", "C:2", "--degree", "3"],
    ["verify", "--group", "C:2", "--max-q-degree", "1", "--q-series-degree", "1"],
], ids=lambda argv: argv[0])
def test_the_cli_run_as_main_never_imports_itself(argv):
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qmckay.cli", *argv],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    imported = [line.rpartition("|")[2].strip() for line in result.stderr.splitlines()]
    assert "qmckay.commands" in imported
    assert "qmckay.cli" not in imported


# the namespace scan of perfbench/tracer.py's `Recorder.install`: `vars()`
# executes each deferred layer while sys.modules is being iterated, which
# raises if executing one adds an entry
_SCAN_PROBE = """
import sys
import qmckay.cli
before = set(sys.modules)
[vars(m) for n, m in sys.modules.items() if n == "qmckay" or n.startswith("qmckay.")]
print(*sorted(set(sys.modules) - before))
"""


def test_executing_the_deferred_layers_adds_no_module():
    result = subprocess.run(
        [sys.executable, "-c", _SCAN_PROBE],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


# SHA-256 of the --help text of qmckay and of each subcommand at 80 columns;
# the default precision the text prints is read without importing crc
HELP_SHA256 = {
    "": "2d3bad092aabdef4ec141c777ee2e0fb48541c99f550d7efb69358f5757daeba",
    "roots": "72dd87dc7cd7fb807346490d378514346b940b99e170e8ca04df2d2d8059ee12",
    "group": "71e7d1edecfe24acc1a6d661489f12342d66de3422c8e3b0bc213e8a24972d48",
    "bps": "0f9ef7aa114095ba72fde46e6e1d4879b8560897ed514fe339b2a958e1dfddbf",
    "gw": "5adcc07007a64fc1d3f7535cc8f962139d20e13dd5f4c88704520daa668cf353",
    "partition": "8a03a84ad770e92b39ca861fad35eb3452641e3f0f9e10c62729f0e38f4e181f",
    "dt": "6c7597211f3fab6617ef8981627da8aa51117620dce7b93ea29711b77db27097",
    "intersect": "cda85402efdebf38d187b1e795bf5002f72eb49cd6d0c4b52cae99a6026dc659",
    "crc": "f67825780b1ff708e96d107705a79999f86b09402401cdc898d209efbddfd301",
    "verify": "1d89fe7860ee05fdb6c84799c07e7aaa67e3accd7773f00e4c0b443c46da859c",
}


@pytest.mark.parametrize("command", list(HELP_SHA256), ids=lambda c: c or "qmckay")
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, [command, "--help"] if command else ["--help"])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]

# resolves every (module, attribute path) of the tracer's LAYERS after
# importing only the CLI, as `Recorder.install` does, and prints each layer
# that does not resolve, or whose `cache_hits` count is declared for an
# uncached function or missing for a cached one (the tracer records it for
# every function with `cache_info`, and a count no row declares is a KeyError)
_LAYERS_PROBE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import qmckay.cli
for layer, module, path, _, counts in tracer.LAYERS:
    owner = sys.modules.get(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    if not callable(owner) or hasattr(owner, "cache_info") != ("cache_hits" in counts):
        print(layer, module, path)
print(len(tracer.LAYERS))
"""


def test_every_traced_layer_resolves_after_importing_the_cli():
    result = subprocess.run(
        [sys.executable, "-c", _LAYERS_PROBE, str(ROOT / "perfbench" / "tracer.py")],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1 and int(lines[0]) > 0, lines


def _traced(argv):
    """One request under perfbench/tracer.py: its completed process and spans."""
    read, write = os.pipe()
    with open(read, "rb") as sink, ThreadPoolExecutor(1) as pool:
        spans = pool.submit(sink.read)  # drained while the child runs
        try:
            result = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(write), *argv],
                capture_output=True, timeout=120, env=_src_env(), pass_fds=(write,),
            )
        finally:
            os.close(write)
        return result, json.loads(spans.result())


@pytest.mark.parametrize("argv, degree", [
    (["verify", "--group", "T"], 3),
    (["crc", "--group", "T", "--degree", "4"], 4),
], ids=["verify", "crc"])
def test_traced_request_matches_the_untraced_cli(argv, degree):
    traced, spans = _traced(argv)
    plain = subprocess.run(
        [sys.executable, "-m", "qmckay.cli", *argv],
        capture_output=True, timeout=120, env=_src_env(),
    )
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    names = {span[0] for span in spans}
    assert {"cli.main", "crc.orbifold_potential"} <= names
    assert ("crc.crc_consistency" in names) == (argv[0] == "verify")
    expected = len(cli.crc.orbifold_potential(GroupSpec.tetrahedral(), degree).rationals)
    counts = [span[4]["coefficients"] for span in spans if span[0] == "crc.orbifold_potential"]
    assert counts == [expected]


def test_no_source_line_is_longer_than_100_characters():
    for path in sorted((ROOT / "src" / "qmckay").rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert len(line) <= 100, f"{path.name}:{number}"


def test_no_command_imports_mpmath():
    # statically, what the subprocess probe of each command checks at run time
    paths = [ROOT / "src" / "qmckay" / "cli.py",
             *sorted((ROOT / "src" / "qmckay" / "commands").glob("*.py"))]
    found = [f"{path.name}:{node.lineno}"
             for path in paths for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and any(
                 alias.name.partition(".")[0] == "mpmath" for alias in node.names)
             or isinstance(node, ast.ImportFrom) and not node.level
             and (node.module or "").partition(".")[0] == "mpmath"]
    assert len(paths) > 2
    assert found == []


def test_no_source_check_is_an_assert_statement():
    # `python -O` strips an assert, and `cli.main` maps no AssertionError
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "qmckay").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_source_function_is_named_outside_its_def():
    """A function or method of `src/qmckay` whose name appears nowhere in
    src/, tests/, perfbench/ or pyproject.toml but in a def has no caller.
    Dunders are exempt, and so are the `cmd_*` builders that `cli._builder`
    reaches by `getattr`."""
    files = [ROOT / "pyproject.toml", *(path for top in ("src", "tests", "perfbench")
                                        for path in sorted((ROOT / top).rglob("*.py")))]
    text = "\n".join(path.read_text() for path in files)
    words = Counter(re.findall(r"\w+", text))
    defs = Counter(re.findall(r"\bdef\s+(\w+)", text))
    names = {node.name for path in sorted((ROOT / "src" / "qmckay").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    dead = sorted(name for name in names if words[name] <= defs[name]
                  and not name.startswith("cmd_") and not re.fullmatch(r"__\w+__", name))
    assert dead == []
