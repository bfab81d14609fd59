"""`qmckay roots`: the positive roots of the group's ADE root system."""

from __future__ import annotations

from .. import grouprep, rootsys
from . import Report, _rows


def cmd_roots(spec: grouprep.GroupSpec, args) -> Report:
    ade = grouprep.root_system_of(spec)
    rs = rootsys.root_system(ade)
    roots = [list(alpha) for alpha in rs.positive_roots]
    payload = {
        "ade": str(ade),
        "rank": rs.rank,
        "coxeter_number": rs.coxeter_number,
        "positive_root_count": len(roots),
        "positive_roots": roots,
    }
    fields = ["index"] + [f"node_{i}" for i in range(rs.rank)]
    rows = _rows({"index": i, "node": alpha} for i, alpha in enumerate(roots))

    def lines():
        yield (
            f"{ade}: rank {rs.rank}, Coxeter number {rs.coxeter_number}, "
            f"{len(roots)} positive roots"
        )
        yield from ("  " + " ".join(str(a) for a in alpha) for alpha in roots)

    return Report(payload, fields, rows, lines())
