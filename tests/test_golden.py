"""Byte-exact CLI outputs against SHA-256 digests.

The digests were taken from cold `python -m qmckay.cli` runs with no
`QMCKAY_*` variables set.  golden_crc_sha256.json holds `crc`: every
supported group at `--degree 4` in JSON, D:3, T and C:6 at `--degree 5`
in CSV and text, D:3 at `--degree 8`, whose x_r1^8 coefficient
-559/4898880 has a denominator past 10^6, and the stress groups C:16 at
`--degree 5` and D:24 at `--degree 4`.  golden_data_sha256.json holds `group`, `bps` and
`intersect`: every supported group in JSON, D:5, T, O, I and C:6 in CSV and
text, `bps --group C:16 --format csv`, and the high-rank `group --group C:20`,
`intersect --group D:24` and `intersect --group C:16 --format csv`, whose
root closures and packed tensor fields are the largest the CLI builds.
golden_cli_sha256.json holds the remaining subcommands: `roots` for every
supported group in JSON and E8, D:5 and C:6 in CSV and text; `gw`,
`partition` and `dt` for D:5, T and C:6 at caps 2 in all three formats;
`verify` for D:5, T and C:4 at caps 2 in all three formats.  Any change to
a printed digit, a row, or the row order shows up here, and a subcommand or
format without a digest fails the coverage test.

The benchmark's own oracle, perfbench/expected.json, is read here too: each
of its requests must give the recorded exit code and digest, and each
`verify` request must pass every check and name every recorded one.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qmckay.cli import COMMANDS, EXIT_OK, main

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden_crc_sha256.json").read_text())
GOLDEN_DATA = json.loads((HERE / "golden_data_sha256.json").read_text())
GOLDEN_CLI = json.loads((HERE / "golden_cli_sha256.json").read_text())
ORACLE = json.loads((HERE.parent / "perfbench" / "expected.json").read_text())


def _digest(request_line, capsys, monkeypatch) -> str:
    monkeypatch.delenv("QMCKAY_PRECISION", raising=False)
    code = main(request_line.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    return hashlib.sha256(out.encode()).hexdigest()


def test_every_command_and_format_has_a_golden_digest():
    covered = set()
    for request_line in {**GOLDEN, **GOLDEN_DATA, **GOLDEN_CLI}:
        words = request_line.split()
        fmt = words[words.index("--format") + 1] if "--format" in words else "json"
        covered.add((words[0], fmt))
    expected = {(cmd, fmt) for cmd in COMMANDS for fmt in ("json", "csv", "text")}
    assert expected - covered == set()


@pytest.mark.parametrize("request_line", sorted(GOLDEN))
def test_crc_output_matches_golden_digest(request_line, capsys, monkeypatch):
    assert _digest(request_line, capsys, monkeypatch) == GOLDEN[request_line]


@pytest.mark.parametrize("request_line", sorted(GOLDEN_DATA))
def test_data_output_matches_golden_digest(request_line, capsys, monkeypatch):
    assert _digest(request_line, capsys, monkeypatch) == GOLDEN_DATA[request_line]


@pytest.mark.parametrize("request_line", sorted(GOLDEN_CLI))
def test_cli_output_matches_golden_digest(request_line, capsys, monkeypatch):
    assert _digest(request_line, capsys, monkeypatch) == GOLDEN_CLI[request_line]


@pytest.mark.parametrize("request_line", sorted(ORACLE))
def test_benchmark_oracle_outcomes(request_line, capsys, monkeypatch):
    expected = ORACLE[request_line]
    monkeypatch.delenv("QMCKAY_PRECISION", raising=False)
    code = main(request_line.split())
    out = capsys.readouterr().out
    assert code == expected["exit"]
    if request_line.startswith("verify "):
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert [c["name"] for c in payload["checks"] if c["status"] != "pass"] == []
        assert set(expected["checks"]) <= {c["name"] for c in payload["checks"]}
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]
