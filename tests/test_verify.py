"""The `verify` suite as a table: each check run directly on a `Context`."""

import json

import pytest

import qmckay.grouprep as grouprep
import qmckay.gwtheory as gwtheory
from qmckay import DEFAULT_DPS
from qmckay.cli import EXIT_INTERNAL, EXIT_VERIFY, main, parse_group
from qmckay.commands.verify import CHECKS, Context
from qmckay.errors import InternalConsistencyError
from qmckay.rootsys import RootSystem, root_system
from qmckay.series import Truncation


def context(token, truncation, rs=None):
    spec = parse_group(token)
    corr = grouprep.correspondence(spec)
    return Context(spec, truncation, DEFAULT_DPS, corr, rs or root_system(corr.ade))


def run_table(ctx):
    checks = []
    for name, check in CHECKS:
        try:
            checks.append({"name": name, "status": "pass", "detail": check(ctx)})
        except InternalConsistencyError as exc:
            checks.append({"name": name, "status": "fail", "detail": str(exc)})
    return checks


def failures(checks):
    return {c["name"]: c["detail"] for c in checks if c["status"] == "fail"}


@pytest.mark.parametrize("token", ["C:3", "D:5", "T"])
def test_the_table_on_a_context_reports_what_the_cli_reports(capsys, monkeypatch, token):
    monkeypatch.delenv("QMCKAY_PRECISION", raising=False)
    direct = run_table(context(token, Truncation(q_total=4, big_q=4)))
    assert main(["verify", "--group", token]) == 0
    assert direct == json.loads(capsys.readouterr().out)["checks"]
    assert [c["status"] for c in direct] == ["pass"] * 12


def test_a_context_with_a_perturbed_cartan_matrix_fails_only_its_checks():
    honest = root_system(grouprep.correspondence(parse_group("D5")).ade)
    cartan = [list(row) for row in honest.cartan]
    cartan[1][0] -= 1
    fields = {name: getattr(honest, name) for name in honest.__match_args__}
    rs = RootSystem(**fields | {"cartan": tuple(map(tuple, cartan))})
    checks = run_table(context("D5", Truncation(q_total=2, big_q=2), rs))
    assert failures(checks) == {
        "root-sum-identity": "sum over R+ of a a^T != h C^-1",
        "surface-two-point": "surface two-point != -C^-1",
    }


def test_a_failed_partition_function_fails_each_check_that_reads_it(capsys, monkeypatch):
    calls = []

    def boom(spec, truncation):
        calls.append(spec)
        raise InternalConsistencyError("synthetic Z")

    # a build that raises is not cached, so each of the three checks builds Z again
    monkeypatch.setattr(gwtheory, "partition_function", boom)
    code = main(["verify", "--group", "C:3", "--max-q-degree", "2", "--q-series-degree", "2"])
    assert code == EXIT_VERIFY
    assert failures(json.loads(capsys.readouterr().out)["checks"]) == {
        "partition-factorization": "synthetic Z",
        "exp-log-round-trip": "synthetic Z",
        "bps-recovery": "synthetic Z",
    }
    assert len(calls) == 3


def test_a_failed_correspondence_exits_four_before_any_check(capsys, monkeypatch):
    def boom(spec):
        raise InternalConsistencyError("synthetic correspondence")

    monkeypatch.setattr(grouprep, "correspondence", boom)
    code = main(["verify", "--group", "T"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err == "qmckay: internal consistency failure: synthetic correspondence\n"
