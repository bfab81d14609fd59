"""`qmckay intersect`: the equivariant intersection numbers of the resolution."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, repeat

from .. import grouprep, intersect
from . import Report, canonical_token


def _scalar_block(scalar) -> dict:
    return {"value": str(scalar.value), "t_power": scalar.t_power}


def _strings(matrix, text: dict[int, str]) -> list:
    # tensors share one Fraction per distinct value, and hashing a Fraction
    # costs more than formatting it, so ``text`` caches strings by object id
    return [[text.get(id(x)) or text.setdefault(id(x), str(x)) for x in row] for row in matrix]


def _integrals_block(data) -> dict:
    text: dict[int, str] = {}
    return {
        "basis": list(data.basis),
        "zero_point": _scalar_block(data.zero_point),
        "one_point": [str(x) for x in data.one_point],
        "two_point": {
            "matrix": _strings(data.two_point, text), "t_power": data.two_point_t_power,
        },
        "three_point": {
            "tensor": [_strings(plane, text) for plane in data.three_point],
            "t_power": data.three_point_t_power,
        },
    }


def _indices(lengths) -> list[str]:
    return [str(x) for x in range(max(lengths, default=0))]


def _row_runs(payload) -> Iterator[Iterable[tuple]]:
    """The rows of `_intersect_rows`, in runs: a scalar's one row, or one
    `zip` per matrix or tensor row, whose fields are all str already."""
    classical = payload["classical"]
    blocks = [
        (f"{name}.{part}", payload[name][part])
        for name in ("threefold", "surface")
        for part in ("zero_point", "two_point", "three_point")
    ]
    blocks += [("pairing", payload["pairing"]),
               ("classical.delta_e_cubed", classical["delta_e_cubed"])]
    blocks += [("classical.delta_pair", entry) for entry in classical["delta_pair"]]
    for block, data in blocks:
        t = str(data["t_power"])
        if "value" in data:
            yield [(block, data.get("class", ""), "", "", data["value"], t)]
        block_, t_ = repeat(block), repeat(t)
        # index strings as long as this block's longest axis, square or not
        matrix = data.get("matrix", ())
        index = _indices([len(matrix), *map(len, matrix)])
        for i, row in zip(index, matrix):
            yield zip(block_, repeat(i), index, repeat(""), row, t_)
        tensor = data.get("tensor", ())
        index = _indices([len(tensor), *map(len, tensor), *(len(r) for p in tensor for r in p)])
        for i, plane in zip(index, tensor):
            for j, row in zip(index, plane):
                yield zip(block_, repeat(i), repeat(j), index, row, t_)


def _intersect_rows(payload) -> Iterable[tuple]:
    """CSV rows (block, i, j, k, value, t_power) of an intersect payload: one
    per scalar, a delta_pair's class as i, and one per matrix or tensor entry.
    Every field is a str and each matrix or tensor row is one C iterator, so
    neither this nor `csv` runs Python code per entry."""
    return chain.from_iterable(_row_runs(payload))


def cmd_intersect(spec: grouprep.GroupSpec, args) -> Report:
    pairing, pairing_t = intersect.mckay_pairing(spec)
    # first: it builds what classical_potential reads
    threefold = intersect.threefold_integrals(spec)
    potential = intersect.classical_potential(spec)
    corr = grouprep.correspondence(spec)
    payload = {
        "group": canonical_token(spec),
        "threefold": _integrals_block(threefold),
        "surface": _integrals_block(intersect.surface_integrals(spec)),
        "pairing": {"matrix": _strings(pairing, {}), "t_power": pairing_t},
        "classical": {
            "delta_e_cubed": _scalar_block(potential.delta_e_cubed),
            "delta_pair": [
                {"class": cls.label, **_scalar_block(potential.delta_pair[cls.label])}
                for cls in corr.group.classes[1:]
            ],
        },
    }
    fields = ["block", "i", "j", "k", "value", "t_power"]

    def lines():
        threefold, surface = payload["threefold"], payload["surface"]
        delta = payload["classical"]["delta_e_cubed"]
        yield f"{canonical_token(spec)}: equivariant intersection data"
        yield f"threefold basis: {' '.join(threefold['basis'])}"
        yield f"  zero-point: {delta['value']} * t^{delta['t_power']}"
        yield f"  two-point (t^{threefold['two_point']['t_power']}):"
        yield from ("    " + " ".join(row) for row in threefold["two_point"]["matrix"])
        yield f"pairing (t^{pairing_t}):"
        yield from ("    " + " ".join(row) for row in payload["pairing"]["matrix"])
        yield f"surface basis: {' '.join(surface['basis'])}"
        yield (
            f"  zero-point: {surface['zero_point']['value']} * "
            f"t^{surface['zero_point']['t_power']}"
        )
        yield f"  two-point (t^{surface['two_point']['t_power']}):"
        yield from ("    " + " ".join(row) for row in surface["two_point"]["matrix"])

    return Report(payload, fields, _intersect_rows(payload), lines())
