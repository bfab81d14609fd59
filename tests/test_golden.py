"""Byte-exact `crc` outputs against SHA-256 digests in golden_crc_sha256.json.

The digests were taken from cold `python -m qmckay.cli` runs with no
`QMCKAY_*` variables set: every supported group at `--degree 4` in JSON,
and D:3, T and C:6 at `--degree 5` in CSV and text.  Any change to a
printed digit, a row, or the row order of the orbifold potential shows up
here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qmckay.cli import EXIT_OK, main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_crc_sha256.json").read_text()
)


@pytest.mark.parametrize("request_line", sorted(GOLDEN))
def test_crc_output_matches_golden_digest(request_line, capsys, monkeypatch):
    monkeypatch.delenv("QMCKAY_PRECISION", raising=False)
    code = main(request_line.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[request_line]
