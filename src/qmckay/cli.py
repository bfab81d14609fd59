"""Command line front end.

Every subcommand takes a group, computes one block of the correspondence
data, and emits a deterministic report: identical invocations produce
identical bytes.  JSON payloads carry all numbers as strings ("p/q" for
rationals, decimal strings for reals) and validate against the schemas in
`qmckay.schemas`.  CSV is drawn from the payload's records, and only when
CSV is asked for: each record is one row in column order, a list value
fills consecutive columns, and a sparse exponent dict fills one column per
variable, 0 where absent.  Text is for reading, and its lines are likewise
built only when text is asked for.

Exit codes: 0 success, 1 verification failure, 2 bad arguments (a precision
outside 10..4000 digits, an --output path that cannot be written) or out of
memory, 3 unsupported group, 4 internal consistency failure (rounding
residual, tan pole, broken invariant).

Group grammar: "C:k" (cyclic, k >= 2), "D:m" (dihedral, m >= 2), "T", "O",
"I", or a root-system alias "A3", "D5", "E6", ...  An A-alias names the
root system of the binary cover, so "A3" is the cyclic group of order 2,
not of order 3 (odd A-ranks only; even ones match no rotation group).
"""

from __future__ import annotations

import argparse
import fractions  # noqa: F401 - see _deferred
import functools
import importlib.util
import io
import json
import os
import re
import sys
from collections.abc import Iterable

from . import DEFAULT_DPS
from .errors import ConfigurationError, InternalConsistencyError, PoleError
from .records import record


def _deferred(name: str):
    """The module qmckay.<name>, executed on the first access to one of its
    attributes (`importlib.util.LazyLoader`), so a command compiles only the
    layers it runs; a module already imported is returned as it is.

    Every module a layer imports at its top is deferred here or imported
    above (`fractions` for the layers, which the CLI itself does not use),
    so executing a deferred module adds no entry to `sys.modules`.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


crc, exact, grouprep, gwtheory, intersect, modular, rootsys, series = map(_deferred, (
    "crc", "exact", "grouprep", "gwtheory", "intersect", "modular", "rootsys", "series",
))

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_ARGS = 2
EXIT_GROUP = 3
EXIT_INTERNAL = 4

PRECISION_ENV = "QMCKAY_PRECISION"
MIN_PRECISION = 10
# crc rounds its exact coefficients to precision + 10 digits before it
# prints them; the cap keeps that rounding bounded
MAX_PRECISION = 4_000


class UnsupportedGroupError(Exception):
    """A recognisable group name outside the supported families."""


def parse_group(token: str) -> grouprep.GroupSpec:
    """Parse "C:k" / "D:m" / "T" / "O" / "I" or an ADE alias.

    Raises UnsupportedGroupError for well-formed names outside the families
    (C:1, A4, D3, E5, ...) and ValueError for unparseable ones.
    """
    GroupSpec = grouprep.GroupSpec
    text = token.strip().upper()
    for kind, (letter, _, _) in grouprep.EXCEPTIONAL.items():
        if text in (letter, kind.upper()):
            return GroupSpec(kind)
    m = re.fullmatch(r"([CD]):([0-9]+)", text)
    if m:
        family, value = m.group(1), int(m.group(2))
        if value < 2:
            raise UnsupportedGroupError(
                f"{token}: the {'cyclic' if family == 'C' else 'dihedral'} "
                f"parameter must be at least 2"
            )
        return GroupSpec.cyclic(value) if family == "C" else GroupSpec.dihedral(value)
    m = re.fullmatch(r"([ADE])([0-9]+)", text)
    if m:
        family, rank = m.group(1), int(m.group(2))
        if family == "A":
            if rank < 3 or rank % 2 == 0:
                raise UnsupportedGroupError(
                    f"{token}: A-aliases name the binary cover's root system, "
                    f"so only odd ranks >= 3 occur (A3 = C:2, A5 = C:3, ...)"
                )
            return GroupSpec.cyclic((rank + 1) // 2)
        if family == "D":
            if rank < 4:
                raise UnsupportedGroupError(
                    f"{token}: D-aliases start at D4 (= D:2)"
                )
            return GroupSpec.dihedral(rank - 2)
        for kind, (_, e_rank, _) in grouprep.EXCEPTIONAL.items():
            if rank == e_rank:
                return GroupSpec(kind)
        raise UnsupportedGroupError(f"{token}: exceptional aliases are E6, E7, E8")
    raise ValueError(f"cannot parse group {token!r}")


def canonical_token(spec: grouprep.GroupSpec) -> str:
    if spec.kind in grouprep.EXCEPTIONAL:
        return grouprep.EXCEPTIONAL[spec.kind][0]
    return f"{spec.kind[0].upper()}:{spec.parameter}"


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@record
class Report:
    payload: object
    csv_fields: list[str]
    csv_rows: Iterable[list]  # a generator over the payload, run by `render`
    text_lines: Iterable[str]  # likewise, run only for text
    exit_code: int = EXIT_OK


def _rows(records, keys=()) -> Iterable[list]:
    """CSV rows of payload records: each value in turn, a list value spread
    over consecutive columns and a dict value (sparse exponents) over
    `keys`, 0 where absent."""
    for record in records:
        row = []
        for value in record.values():
            if isinstance(value, list):
                row += value
            elif isinstance(value, dict):
                row += [value.get(k, 0) for k in keys]
            else:
                row.append(value)
        yield row


def _charvalue(v) -> str:
    value = v.integer_value()
    if value is not None:
        return str(value)
    import mpmath as mp

    return mp.nstr(crc.as_mpc(v).real, 30)


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


def cmd_group(spec: grouprep.GroupSpec, args) -> Report:
    corr = grouprep.correspondence(spec)
    g = corr.group
    rs = rootsys.root_system(corr.ade)
    _, ages = grouprep.hard_lefschetz_check(g)
    classes = [
        {
            "label": c.label,
            "size": c.size,
            "element_order": c.element_order,
            "chi_v": _charvalue(g.chi_v[i]),
            "age": str(ages[i]),
        }
        for i, c in enumerate(g.classes)
    ]
    irreps = [{"label": r.label, "dim": r.dim} for r in g.irreps]
    nodes = []
    for p, irrep_idx in enumerate(corr.node_irreps):
        slot = corr.node_slot[p]
        nodes.append({
            "index": p,
            "binary_irrep": corr.binary_group.irreps[irrep_idx].label,
            "curve_irrep": None if slot is None else corr.slot_labels[slot],
            "mark": rs.highest_root[p],
        })
    payload = {
        "group": canonical_token(spec),
        "order": g.order,
        "binary_order": 2 * g.order,
        "ade": str(corr.ade),
        "classes": classes,
        "irreps": irreps,
        "nodes": nodes,
    }
    fields = [
        "section", "label", "size", "element_order", "chi_v", "age", "dim",
        "index", "binary_irrep", "curve_irrep", "mark",
    ]
    # every section fills its own columns and leaves the others empty
    blank = dict.fromkeys(fields)
    rows = _rows(
        {**blank, "section": section, **record}
        for section, records in (("class", classes), ("irrep", irreps), ("node", nodes))
        for record in records
    )

    def lines():
        yield (
            f"{canonical_token(spec)}: |G| = {g.order}, binary cover of order "
            f"{2 * g.order}, root system {corr.ade}"
        )
        yield "classes (label size order chi_V age):"
        for c in classes:
            yield f"  {c['label']} {c['size']} {c['element_order']} {c['chi_v']} {c['age']}"
        yield "irreps (label dim):"
        for r in irreps:
            yield f"  {r['label']} {r['dim']}"
        yield "nodes (index binary_irrep curve_irrep mark):"
        for n in nodes:
            yield f"  {n['index']} {n['binary_irrep']} {n['curve_irrep'] or '-'} {n['mark']}"

    return Report(payload, fields, rows, lines())


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


def _intersect_rows(payload) -> Iterable[list]:
    """CSV rows (block, i, j, k, value, t_power) of an intersect payload: one
    per scalar, a delta_pair's class as i, and one per matrix or tensor entry."""
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
        t = data["t_power"]
        if "value" in data:
            yield [block, data.get("class", ""), "", "", data["value"], t]
        for i, row in enumerate(data.get("matrix", ())):
            for j, x in enumerate(row):
                yield [block, i, j, "", x, t]
        for i, plane in enumerate(data.get("tensor", ())):
            for j, row in enumerate(plane):
                for k, x in enumerate(row):
                    yield [block, i, j, k, x, t]


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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(spec: grouprep.GroupSpec, args) -> Report:
    checks: list[dict] = []

    def check(name: str):
        def wrap(fn):
            try:
                detail = fn()
                checks.append({"name": name, "status": "pass", "detail": detail})
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                checks.append({"name": name, "status": "fail", "detail": str(exc)})
        return wrap

    corr = grouprep.correspondence(spec)
    rs = rootsys.root_system(corr.ade)

    @check("mckay-graph")
    def _():
        # correspondence() itself asserts adjacency = 2I - Cartan; surviving
        # construction plus a shape sanity line is the observable here
        return (
            f"affine {corr.ade} diagram matched with "
            f"{len(corr.binary_nodes)} binary nodes"
        )

    @check("character-orthogonality")
    def _():
        pairs = 0
        for g in (corr.group, corr.binary_group):
            products = grouprep.inner_products(g, g.table, g.table)
            n = len(g.irreps)
            for a in range(n):
                for b in range(a, n):
                    value = products[a][b]
                    if value != (a == b):
                        raise InternalConsistencyError(
                            f"<{g.irreps[a].label}, {g.irreps[b].label}> = {value} in {g.name}"
                        )
                    pairs += 1
        return f"{pairs} inner products exactly 0 or 1 (exact sums in Z[zeta_N])"

    # M = x C^-1 is checked as M C = x I, summing over the at most 4
    # nonzeros of each column of the Cartan matrix C
    columns = [[(k, c) for k, c in enumerate(column) if c] for column in zip(*rs.cartan)]

    def times_cartan_is(m, x) -> bool:
        return [[sum(row[k] * c for k, c in column) for column in columns] for row in m] == [
            [x * (i == j) for j in range(rs.rank)] for i in range(rs.rank)]

    @check("root-sum-identity")
    def _():
        total = [[0] * rs.rank for _ in range(rs.rank)]
        for alpha in rs.positive_roots:
            support = [(i, a) for i, a in enumerate(alpha) if a]
            for i, a in support:
                for j, b in support:
                    total[i][j] += a * b
        if not times_cartan_is(total, rs.coxeter_number):
            raise InternalConsistencyError("sum over R+ of a a^T != h C^-1")
        return f"sum over {len(rs.positive_roots)} roots equals h * C^-1"

    @check("ages-hard-lefschetz")
    def _():
        ok, ages = grouprep.hard_lefschetz_check(corr.group)
        if not ok:
            raise InternalConsistencyError("age(g) != age(g^-1) somewhere")
        bad = [a for a in ages[1:] if a != 1]
        if bad:
            raise InternalConsistencyError(f"nontrivial ages {bad} != 1")
        return f"all {len(ages) - 1} nontrivial classes have age 1"

    # one BPS table serves bps-fibers and bps-recovery
    @functools.cache
    def table():
        return gwtheory.bps_table(spec)

    @check("bps-fibers")
    def _():
        fibers = table().fibers
        sizes = set(fibers.values())
        if not sizes <= {1, 2, 4, 8}:
            raise InternalConsistencyError(f"fiber sizes {sorted(sizes)}")
        expected = len(rs.positive_roots) - len(grouprep.binary_simple_roots(spec))
        got = sum(fibers.values())
        if got != expected:
            raise InternalConsistencyError(
                f"fibers cover {got} roots, expected {expected}"
            )
        return f"{len(table().counts)} classes, fiber sizes {sorted(sizes)}"

    trunc = series.Truncation(q_total=args.max_q_degree, big_q=args.q_series_degree)

    # Z and log Z are shared by the three series checks; a failure is not
    # cached, so each check that needs the value reports it
    @functools.cache
    def z_series():
        return gwtheory.partition_function(spec, trunc).series

    @functools.cache
    def log_z():
        return z_series().log()

    @check("partition-factorization")
    def _():
        per_class = z_series()
        per_root = gwtheory.partition_function_by_roots(spec, trunc).series
        if per_class != per_root:
            raise InternalConsistencyError("per-class and per-root products differ")
        return f"{len(per_class)} terms agree"

    @check("exp-log-round-trip")
    def _():
        z = z_series()
        if log_z().exp() != z:
            raise InternalConsistencyError("exp(log Z) != Z")
        return "exp(log Z) == Z exactly"

    @check("bps-recovery")
    def _():
        z = z_series()
        free = log_z()
        n_checked = 0
        for beta, n0 in sorted(table().counts.items()):
            if sum(beta) > args.max_q_degree or args.q_series_degree < 1:
                continue
            exponents = {v: b for v, b in zip(z.variables, beta) if b}
            exponents["Q"] = 1
            got = free.coefficient(exponents)
            want = -n0
            if got != want:
                raise InternalConsistencyError(
                    f"log Z at q^{beta} Q^1 is {got}, expected {want}"
                )
            n_checked += 1
        return f"recovered n0 for {n_checked} classes from log Z"

    @check("pairing-inversion")
    def _():
        if not intersect.pairing_inverse_check(spec):
            raise InternalConsistencyError("pairing x two-point != identity")
        return "pairing inverts the two-point matrix exactly"

    @check("surface-two-point")
    def _():
        surface = intersect.surface_integrals(spec)
        if not times_cartan_is(surface.two_point, -1):
            raise InternalConsistencyError("surface two-point != -C^-1")
        return "surface two-point equals -C^-1 exactly"

    @check("normal-bundles")
    def _():
        for label in corr.slot_labels:
            a, b = gwtheory.normal_bundle_type(spec, label)
            if a + b != -2:
                raise InternalConsistencyError(
                    f"normal bundle ({a},{b}) of {label} does not sum to -2"
                )
        return f"degrees sum to -2 on all {len(corr.slot_labels)} curves"

    @check("crc-consistency")
    def _():
        worst = crc.crc_consistency(spec, args.precision)
        if worst:
            from .digits import nstr

            residual = nstr(worst.numerator, worst.denominator, args.precision, 5)
            raise InternalConsistencyError(f"resolution vs orbifold residual {residual}")
        return ("resolution route (classical cubic + root series) and orbifold tan formula "
                "third partials agree exactly as lifted rationals (residual 0; holds by "
                "identity (1+w)/(1-w) = i*cot(theta/2), not independent evidence)")

    failed = [c for c in checks if c["status"] == "fail"]
    payload = {
        "group": canonical_token(spec),
        "status": "fail" if failed else "pass",
        "checks": checks,
    }
    fields = ["name", "status", "detail"]

    def lines():
        yield f"{canonical_token(spec)}: verification {'FAILED' if failed else 'passed'}"
        for c in checks:
            yield f"  [{c['status']}] {c['name']}: {c['detail']}"

    return Report(
        payload, fields, _rows(checks), lines(),
        exit_code=EXIT_VERIFY if failed else EXIT_OK,
    )


COMMANDS = {
    "roots": cmd_roots,
    "group": cmd_group,
    "bps": cmd_bps,
    "gw": cmd_gw,
    "partition": functools.partial(_partition_report, kind="gw"),
    "dt": functools.partial(_partition_report, kind="dt"),
    "intersect": cmd_intersect,
    "crc": cmd_crc,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmckay",
        description="Quantum McKay correspondence data for polyhedral singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--group", required=True,
            help="C:k, D:m, T, O, I, or root-system alias (A3 = C:2, D5 = D:3, E6 = T)",
        )
        p.add_argument(
            "--precision", type=int, default=None,
            help=(
                f"digits crc prints of its exact coefficients (at most 30), "
                f"{MIN_PRECISION} to {MAX_PRECISION} "
                f"(default ${PRECISION_ENV} or {DEFAULT_DPS})"
            ),
        )
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--output", default=None, help="write the report to a file")

    def series_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-q-degree", type=int, default=4,
            help="total degree cap on the curve-class variables q_i",
        )
        p.add_argument(
            "--q-series-degree", type=int, default=4,
            help="degree cap on the box-counting variable Q",
        )

    common(sub.add_parser("roots", help="positive roots of the associated ADE system"))
    common(sub.add_parser("group", help="character and McKay-correspondence data"))
    common(sub.add_parser("bps", help="genus-zero BPS table"))

    gw = sub.add_parser("gw", help="Gromov-Witten invariants per curve class")
    common(gw)
    gw.add_argument(
        "--max-q-degree", type=int, default=4,
        help="total degree cap on the curve classes listed",
    )
    gw.add_argument(
        "--lambda-order", type=int, default=4,
        help="largest lambda power reported",
    )

    partition = sub.add_parser("partition", help="reduced GW partition function")
    common(partition)
    series_flags(partition)
    dt = sub.add_parser("dt", help="reduced DT (box-counting) series")
    common(dt)
    series_flags(dt)

    common(sub.add_parser("intersect", help="equivariant intersection numbers"))

    crc_cmd = sub.add_parser("crc", help="orbifold potential Taylor coefficients")
    common(crc_cmd)
    crc_cmd.add_argument(
        "--degree", type=int, default=4,
        help="highest total degree of reported coefficients (>= 3)",
    )

    verify = sub.add_parser("verify", help="run the invariant suite for one group")
    common(verify)
    series_flags(verify)
    return parser


def _validate_bounds(args) -> str | None:
    for name in ("max_q_degree", "q_series_degree", "lambda_order"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            return f"--{name.replace('_', '-')} must be nonnegative"
    degree = getattr(args, "degree", None)
    if degree is not None and degree < 3:
        return "--degree must be at least 3"
    return None


def _resolve_precision(args) -> int:
    if args.precision is not None:
        dps = args.precision
    else:
        env = os.environ.get(PRECISION_ENV)
        if env is None:
            return DEFAULT_DPS
        try:
            dps = int(env)
        except ValueError:
            raise ValueError(f"{PRECISION_ENV} must be an integer, got {env!r}")
    if not MIN_PRECISION <= dps <= MAX_PRECISION:
        raise ValueError(f"precision must be {MIN_PRECISION} to {MAX_PRECISION} digits")
    return dps


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        import csv  # here, so only a --format csv request loads it

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(report.csv_fields)
        writer.writerows(report.csv_rows)
        return buffer.getvalue()
    return "\n".join(report.text_lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ARGS

    problem = _validate_bounds(args)
    if problem:
        print(f"qmckay: {problem}", file=sys.stderr)
        return EXIT_ARGS

    try:
        spec = parse_group(args.group)
    except UnsupportedGroupError as exc:
        print(f"qmckay: unsupported group: {exc}", file=sys.stderr)
        return EXIT_GROUP
    except ValueError as exc:
        print(f"qmckay: {exc}", file=sys.stderr)
        return EXIT_ARGS

    try:
        args.precision = _resolve_precision(args)
    except ValueError as exc:
        print(f"qmckay: {exc}", file=sys.stderr)
        return EXIT_ARGS

    try:
        report = COMMANDS[args.command](spec, args)
        text = render(report, args.format)
    except (PoleError, InternalConsistencyError, ConfigurationError, AssertionError) as exc:
        print(f"qmckay: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print(f"qmckay: out of memory: {args.command} --group {args.group}", file=sys.stderr)
        return EXIT_ARGS
    if args.output:
        try:
            with open(args.output, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"qmckay: cannot write {args.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_ARGS
    else:
        sys.stdout.write(text)
    return report.exit_code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
