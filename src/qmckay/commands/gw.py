"""`qmckay gw`: Gromov-Witten invariants per curve class and genus."""

from __future__ import annotations

from .. import grouprep, gwtheory
from . import Report, _rows, canonical_token


def cmd_gw(spec: grouprep.GroupSpec, args) -> Report:
    cap = args.max_q_degree
    lam = args.lambda_order
    table = gwtheory.bps_table(spec)
    classes = set()
    for beta in table.counts:
        size = sum(beta)
        d = 1
        while d * size <= cap:
            classes.add(tuple(d * b for b in beta))
            d += 1
    invariants = []
    for beta in sorted(classes, key=lambda b: (sum(b), b)):
        g = 0
        while 2 * g - 2 <= lam:
            value = gwtheory.gw_all_genus(spec, beta, g)
            invariants.append({
                "class": list(beta),
                "genus": g,
                "lambda_power": 2 * g - 2,
                "coefficient": str(value),
            })
            g += 1
    payload = {
        "group": canonical_token(spec),
        "max_q_degree": cap,
        "lambda_order": lam,
        "invariants": invariants,
    }
    slots = len(gwtheory.q_variables(spec))
    fields = [f"class_{i}" for i in range(slots)] + [
        "genus", "lambda_power", "coefficient",
    ]

    def lines():
        yield (
            f"{canonical_token(spec)}: GW invariants, classes of total degree <= {cap}, "
            f"lambda order <= {lam}"
        )
        for i in invariants:
            yield (
                f"  {tuple(i['class'])} genus {i['genus']}: {i['coefficient']} "
                f"* lambda^{i['lambda_power']}"
            )

    return Report(payload, fields, _rows(invariants), lines())
