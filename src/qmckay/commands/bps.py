"""`qmckay bps`: the genus-zero BPS table."""

from __future__ import annotations

from .. import grouprep, gwtheory
from . import Report, _rows, canonical_token


def cmd_bps(spec: grouprep.GroupSpec, args) -> Report:
    table = gwtheory.bps_table(spec)
    payload = table.jsonable()
    slots = len(gwtheory.q_variables(spec))
    fields = [f"class_{i}" for i in range(slots)] + ["n0", "fiber_size"]

    def lines():
        yield f"{canonical_token(spec)}: {len(payload)} BPS classes"
        for e in payload:
            yield f"  {tuple(e['class'])}: n0 = {e['n0']} (fiber {e['fiber_size']})"

    return Report(payload, fields, _rows(payload), lines())
