"""`qmckay partition` and `qmckay dt`: the reduced GW partition function and
the reduced DT series, one truncated series printed under two names."""

from __future__ import annotations

import functools

from .. import grouprep, gwtheory, series
from . import Report, _rows, canonical_token


def _partition_report(spec: grouprep.GroupSpec, args, kind: str) -> Report:
    trunc = series.Truncation(q_total=args.max_q_degree, big_q=args.q_series_degree)
    z = gwtheory.partition_function(spec, trunc).series
    terms = z.terms_jsonable()
    payload = {
        "group": canonical_token(spec),
        "kind": kind,
        "max_q_degree": args.max_q_degree,
        "big_q_degree": args.q_series_degree,
        "variables": list(z.variables),
        "terms": terms,
    }
    fields = list(z.variables) + ["t_power", "numerator", "denominator"]
    name = "reduced GW partition function" if kind == "gw" else "reduced DT series"

    def lines():
        yield (
            f"{canonical_token(spec)}: {name}, q-degree <= {args.max_q_degree}, "
            f"Q-degree <= {args.q_series_degree}"
        )
        yield z.format_text()

    return Report(payload, fields, _rows(terms, z.variables), lines())


cmd_partition = functools.partial(_partition_report, kind="gw")
cmd_dt = functools.partial(_partition_report, kind="dt")
