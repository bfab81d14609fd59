"""`qmckay verify`: the invariant suite for one group."""

from __future__ import annotations

import functools

from .. import crc, grouprep, gwtheory, intersect, rootsys, series
from ..errors import InternalConsistencyError
from . import EXIT_OK, EXIT_VERIFY, Report, _rows, canonical_token


def cmd_verify(spec: grouprep.GroupSpec, args) -> Report:
    checks: list[dict] = []

    # a check fails by raising InternalConsistencyError; any other error
    # propagates to `cli.main`, which exits 2 on MemoryError
    def check(name: str):
        def wrap(fn):
            try:
                detail = fn()
                checks.append({"name": name, "status": "pass", "detail": detail})
            except InternalConsistencyError as exc:
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
            from ..digits import nstr

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
