"""`qmckay verify`: the invariant suite for one group, the (name, check) pairs of `CHECKS`.

Each check is a function of the request's one `Context`.  It passes by returning its
detail and fails by raising `InternalConsistencyError`; any other error propagates to
`cli.main`, which exits 2 on `MemoryError` and 4 otherwise.
"""

from __future__ import annotations

import functools

from .. import crc, grouprep, gwtheory, intersect, rootsys, series
from ..errors import InternalConsistencyError
from ..records import record
from . import EXIT_OK, EXIT_VERIFY, Report, _rows, canonical_token


@record
class Context:
    spec: grouprep.GroupSpec
    truncation: series.Truncation
    precision: int
    corr: grouprep.Correspondence
    rs: rootsys.RootSystem

    # shared by the checks; a build that raises is not cached, so each check reports it
    @functools.cached_property
    def table(self):
        return gwtheory.bps_table(self.spec)

    @functools.cached_property
    def z(self):
        return gwtheory.partition_function(self.spec, self.truncation).series

    @functools.cached_property
    def log_z(self):
        return self.z.log()


def _times_cartan_is(m, cartan, x) -> bool:
    """M C == x I, i.e. M = x C^-1 for the Cartan matrix C, over the <= 4 nonzeros per column."""
    columns = [[(k, c) for k, c in enumerate(column) if c] for column in zip(*cartan)]
    return [[sum(row[k] * c for k, c in column) for column in columns] for row in m] == [
        [x * (i == j) for j in range(len(cartan))] for i in range(len(cartan))]


def _mckay_graph(ctx: Context) -> str:
    # correspondence() itself asserts adjacency = 2I - Cartan; surviving
    # construction plus a shape sanity line is the observable here
    return f"affine {ctx.corr.ade} diagram matched with {len(ctx.corr.binary_nodes)} binary nodes"


def _character_orthogonality(ctx: Context) -> str:
    pairs = 0
    for g in (ctx.corr.group, ctx.corr.binary_group):
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


def _root_sum_identity(ctx: Context) -> str:
    rs = ctx.rs
    total = [[0] * rs.rank for _ in range(rs.rank)]
    for alpha in rs.positive_roots:
        support = [(i, a) for i, a in enumerate(alpha) if a]
        for i, a in support:
            for j, b in support:
                total[i][j] += a * b
    if not _times_cartan_is(total, rs.cartan, rs.coxeter_number):
        raise InternalConsistencyError("sum over R+ of a a^T != h C^-1")
    return f"sum over {len(rs.positive_roots)} roots equals h * C^-1"


def _ages_hard_lefschetz(ctx: Context) -> str:
    ok, ages = grouprep.hard_lefschetz_check(ctx.corr.group)
    if not ok:
        raise InternalConsistencyError("age(g) != age(g^-1) somewhere")
    bad = [a for a in ages[1:] if a != 1]
    if bad:
        raise InternalConsistencyError(f"nontrivial ages {bad} != 1")
    return f"all {len(ages) - 1} nontrivial classes have age 1"


def _bps_fibers(ctx: Context) -> str:
    fibers = ctx.table.fibers
    sizes = set(fibers.values())
    if not sizes <= {1, 2, 4, 8}:
        raise InternalConsistencyError(f"fiber sizes {sorted(sizes)}")
    expected = len(ctx.rs.positive_roots) - len(grouprep.binary_simple_roots(ctx.spec))
    got = sum(fibers.values())
    if got != expected:
        raise InternalConsistencyError(f"fibers cover {got} roots, expected {expected}")
    return f"{len(ctx.table.counts)} classes, fiber sizes {sorted(sizes)}"


def _partition_factorization(ctx: Context) -> str:
    per_class = ctx.z
    per_root = gwtheory.partition_function_by_roots(ctx.spec, ctx.truncation).series
    if per_class != per_root:
        raise InternalConsistencyError("per-class and per-root products differ")
    return f"{len(per_class)} terms agree"


def _exp_log_round_trip(ctx: Context) -> str:
    z = ctx.z
    if ctx.log_z.exp() != z:
        raise InternalConsistencyError("exp(log Z) != Z")
    return "exp(log Z) == Z exactly"


def _bps_recovery(ctx: Context) -> str:
    z = ctx.z
    free = ctx.log_z
    n_checked = 0
    for beta, n0 in sorted(ctx.table.counts.items()):
        if sum(beta) > ctx.truncation.q_total or ctx.truncation.big_q < 1:
            continue
        exponents = {v: b for v, b in zip(z.variables, beta) if b}
        exponents["Q"] = 1
        got = free.coefficient(exponents)
        want = -n0
        if got != want:
            raise InternalConsistencyError(f"log Z at q^{beta} Q^1 is {got}, expected {want}")
        n_checked += 1
    return f"recovered n0 for {n_checked} classes from log Z"


def _pairing_inversion(ctx: Context) -> str:
    if not intersect.pairing_inverse_check(ctx.spec):
        raise InternalConsistencyError("pairing x two-point != identity")
    return "pairing inverts the two-point matrix exactly"


def _surface_two_point(ctx: Context) -> str:
    surface = intersect.surface_integrals(ctx.spec)
    if not _times_cartan_is(surface.two_point, ctx.rs.cartan, -1):
        raise InternalConsistencyError("surface two-point != -C^-1")
    return "surface two-point equals -C^-1 exactly"


def _normal_bundles(ctx: Context) -> str:
    for label in ctx.corr.slot_labels:
        a, b = gwtheory.normal_bundle_type(ctx.spec, label)
        if a + b != -2:
            raise InternalConsistencyError(f"normal bundle ({a},{b}) of {label} does not sum to -2")
    return f"degrees sum to -2 on all {len(ctx.corr.slot_labels)} curves"


def _crc_consistency(ctx: Context) -> str:
    worst = crc.crc_consistency(ctx.spec, ctx.precision)
    if worst:
        from ..digits import nstr

        residual = nstr(worst.numerator, worst.denominator, ctx.precision, 5)
        raise InternalConsistencyError(f"resolution vs orbifold residual {residual}")
    return ("resolution route (classical cubic + root series) and orbifold tan formula "
            "third partials agree exactly as lifted rationals (residual 0; holds by "
            "identity (1+w)/(1-w) = i*cot(theta/2), not independent evidence)")


CHECKS = (
    ("mckay-graph", _mckay_graph),
    ("character-orthogonality", _character_orthogonality),
    ("root-sum-identity", _root_sum_identity),
    ("ages-hard-lefschetz", _ages_hard_lefschetz),
    ("bps-fibers", _bps_fibers),
    ("partition-factorization", _partition_factorization),
    ("exp-log-round-trip", _exp_log_round_trip),
    ("bps-recovery", _bps_recovery),
    ("pairing-inversion", _pairing_inversion),
    ("surface-two-point", _surface_two_point),
    ("normal-bundles", _normal_bundles),
    ("crc-consistency", _crc_consistency),
)


def cmd_verify(spec: grouprep.GroupSpec, args) -> Report:
    corr = grouprep.correspondence(spec)
    trunc = series.Truncation(q_total=args.max_q_degree, big_q=args.q_series_degree)
    ctx = Context(spec, trunc, args.precision, corr, rootsys.root_system(corr.ade))
    checks: list[dict] = []
    for name, run in CHECKS:
        try:
            checks.append({"name": name, "status": "pass", "detail": run(ctx)})
        except InternalConsistencyError as exc:
            checks.append({"name": name, "status": "fail", "detail": str(exc)})

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
