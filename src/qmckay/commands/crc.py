"""`qmckay crc`: the orbifold potential's Taylor coefficients."""

from __future__ import annotations

from .. import crc, grouprep
from . import Report, _rows, canonical_token


def cmd_crc(spec: grouprep.GroupSpec, args) -> Report:
    potential = crc.orbifold_potential(spec, args.degree, args.precision)
    payload = potential.jsonable()
    fields = ["degree"] + [f"x_{lbl}" for lbl in potential.class_labels] + [
        "coefficient", "rational_guess",
    ]

    def lines():
        yield (
            f"{canonical_token(spec)}: orbifold potential coefficients through "
            f"degree {args.degree} (variables: {' '.join(potential.class_labels)})"
        )
        for entry in payload:
            mono = " ".join(
                f"x_{lbl}^{e}" for lbl, e in sorted(entry["exponents"].items())
            )
            yield f"  {mono}: {entry['coefficient']} ~ {entry['rational_guess']}"

    return Report(payload, fields, _rows(payload, potential.class_labels), lines())
