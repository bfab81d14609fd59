"""BPS tables, partition functions, and fixed-genus invariants."""

from fractions import Fraction
from math import comb, factorial, gcd

import jsonschema
import pytest

import qmckay.crc as crc
import qmckay.gwtheory as gwtheory
import qmckay.series as series
from qmckay.errors import ConfigurationError
from qmckay.grouprep import GroupSpec, correspondence, root_fibers
from qmckay.gwtheory import (
    bps_table,
    curve_class,
    gw_all_genus,
    gw_genus0,
    normal_bundle_type,
    partition_function,
    partition_function_by_roots,
    q_variables,
)
from qmckay.rootsys import root_system
from qmckay.schemas import BPS_TABLE
from qmckay.series import (
    MultiSeries,
    Truncation,
    macmahon_factor,
    sin_power_expansion,
)

ALL_SPECS = (
    [GroupSpec.cyclic(k) for k in range(2, 9)]
    + [GroupSpec.dihedral(m) for m in range(2, 7)]
    + [GroupSpec.tetrahedral(), GroupSpec.octahedral(), GroupSpec.icosahedral()]
)
IDS = [str(s) for s in ALL_SPECS]

D5 = GroupSpec.dihedral(3)

# Sigma_3 has two exceptional classes; five positive roots of D5 restrict
# onto them in these multiplicities.
D5_BPS = {
    (1, 0): Fraction(1),
    (1, 1): Fraction(2),
    (0, 1): Fraction(4),
    (0, 2): Fraction(1, 2),
    (1, 2): Fraction(1),
}

KLEIN_BPS = {
    (1, 0, 0): Fraction(1),
    (0, 1, 0): Fraction(1),
    (0, 0, 1): Fraction(1),
    (1, 1, 0): Fraction(1, 2),
    (1, 0, 1): Fraction(1, 2),
    (0, 1, 1): Fraction(1, 2),
    (1, 1, 1): Fraction(1),
}


def test_d5_bps_counts_exact():
    table = bps_table(D5)
    assert table.counts == D5_BPS
    assert table.fibers == {beta: int(2 * n) for beta, n in D5_BPS.items()}


def test_klein_four_bps_counts_exact():
    assert bps_table(GroupSpec.dihedral(2)).counts == KLEIN_BPS


def test_smallest_cyclic_bps_counts():
    assert bps_table(GroupSpec.cyclic(2)).counts == {(1,): Fraction(2)}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_fibers_partition_the_noncompact_roots(spec):
    corr = correspondence(spec)
    table = bps_table(spec)
    positives = len(root_system(corr.ade).positive_roots)
    assert set(table.fibers.values()) <= {1, 2, 4, 8}
    assert sum(table.fibers.values()) == positives - len(corr.binary_nodes)
    for beta, f in table.fibers.items():
        assert table.counts[beta] == Fraction(f, 2)


def test_curve_class_restricts_roots():
    assert curve_class(D5, (1, 2, 2, 1, 1)) == (1, 2)
    assert curve_class(D5, (1, 0, 0, 0, 0)) == (1, 0)
    with pytest.raises(ConfigurationError):
        curve_class(D5, (9, 0, 0, 0, 0))


def test_q_variables_follow_slots():
    assert q_variables(D5) == ("q1", "q2")
    assert q_variables(GroupSpec.icosahedral()) == ("q1", "q2", "q3", "q4")


# -- invariants --------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 13))
def test_multiple_cover_sum_on_fiber_class(d):
    # n0(0,1) = 4 and n0(0,2) = 1/2 stack to 4/d^3 or 8/d^3.
    want = Fraction(8 if d % 2 == 0 else 4, d ** 3)
    assert gw_genus0(D5, (0, d)) == want


def test_genus_zero_primitive_classes():
    assert gw_genus0(D5, (1, 0)) == 1
    assert gw_genus0(D5, (3, 3)) == Fraction(2, 27)
    assert gw_genus0(D5, (5, 0)) == Fraction(1, 125)


def test_zero_class_rejected():
    with pytest.raises(ConfigurationError):
        gw_genus0(D5, (0, 0))
    with pytest.raises(ConfigurationError):
        gw_all_genus(D5, (0, 0), 1)


def test_all_genus_frozen_double_cover():
    spec = GroupSpec.cyclic(2)
    assert gw_all_genus(spec, (2,), 0) == Fraction(1, 4)
    assert gw_all_genus(spec, (2,), 1) == Fraction(1, 12)
    assert gw_all_genus(spec, (2,), 2) == Fraction(1, 60)


def test_all_genus_matches_genus_zero():
    for beta in [(1, 0), (0, 2), (2, 2)]:
        assert gw_all_genus(D5, beta, 0) == gw_genus0(D5, beta)


def test_all_genus_primitive_class_has_no_higher_genus():
    # only d = 1 contributes and the kernel has no positive lam terms there
    assert gw_all_genus(D5, (1, 1), 0) == 2
    assert gw_all_genus(D5, (1, 1), 1) == Fraction(2, 12)
    assert gw_all_genus(D5, (1, 1), 2) == Fraction(2, 240)


@pytest.mark.parametrize("spec", [D5, GroupSpec.cyclic(4)], ids=str)
def test_all_genus_matches_cover_kernel_series(spec):
    # divisor sum read off the (1/d)(2 sin(d lam/2))^-2 series, term by term
    table = bps_table(spec)
    for beta in table.counts:
        for mult in (1, 2, 3):
            cls = tuple(mult * b for b in beta)
            for g in range(4):
                want = Fraction(0)
                for d in range(1, max(cls) + 1):
                    base = tuple(b // d for b in cls)
                    if all(b % d == 0 for b in cls) and base in table.counts:
                        kernel = sin_power_expansion(d, 0, max(2 * g - 2, 0))
                        want += table.counts[base] * kernel.coefficient(
                            {"lam": 2 * g - 2})
                assert gw_all_genus(spec, cls, g) == want, (cls, g)


def test_all_genus_builds_table_and_kernels_once(monkeypatch):
    calls = []
    kernel = series.sin_power_expansion

    def counting_kernel(d, g, order):
        calls.append((d, order))
        return kernel(d, g, order)

    monkeypatch.setattr(series, "sin_power_expansion", counting_kernel)
    root_fibers.cache_clear()
    gwtheory._cover_kernel.cache_clear()
    try:
        for beta in [(1, 0), (0, 2), (2, 2), (0, 4), (2, 4)]:
            for g in range(4):
                gw_all_genus(D5, beta, g)
        assert root_fibers.cache_info().misses == 1
        assert sorted(calls) == sorted(set(calls))
        assert set(calls) == {
            (d, order) for d in (1, 2, 4) for order in (0, 2, 4)
        }
    finally:
        root_fibers.cache_clear()
        gwtheory._cover_kernel.cache_clear()


# -- closed forms of the multiple-cover kernel, in Fraction arithmetic alone --


def _bernoulli(n):
    """B_0..B_n from sum_{k<=m} C(m+1, k) B_k = 0 (m >= 1), with B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


BERNOULLI = _bernoulli(12)


def _genus_zero_coefficient(d, genus):
    """[lam^(2G-2)] (1/d)(2 sin(d lam/2))^-2, G = genus: the Faber-Pandharipande
    multiple-cover formula (-1)^(G+1) B_2G (2G-1) d^(2G-3) / (2G)!."""
    return (Fraction((-1) ** (genus + 1) * (2 * genus - 1), factorial(2 * genus))
            * BERNOULLI[2 * genus] * Fraction(d) ** (2 * genus - 3))


def _positive_genus_coefficient(d, g, e):
    """[lam^e] (1/d)(2 sin(d lam/2))^(2K), K = g - 1 >= 0, read off
    (2 sin(y/2))^(2K) = sum_{j=-K..K} (-1)^j C(2K, K-j) e^(i j y)."""
    if e % 2:
        return Fraction(0)
    k, n = g - 1, e // 2
    return sum(Fraction((-1) ** (abs(j) + n) * comb(2 * k, k - j) * (j * d) ** e, factorial(e))
               for j in range(-k, k + 1)) / d


@pytest.mark.parametrize("d", range(1, 6))
def test_genus_zero_kernel_matches_the_bernoulli_closed_form(d):
    kernel = sin_power_expansion(d, 0, 10)
    assert dict(kernel.items()) == {
        (2 * genus - 2,): _genus_zero_coefficient(d, genus) for genus in range(7)}


@pytest.mark.parametrize("g", range(1, 6))
@pytest.mark.parametrize("d", range(1, 6))
def test_positive_genus_kernel_matches_the_exponential_sum(d, g):
    want = {(e,): _positive_genus_coefficient(d, g, e) for e in range(13)}
    assert dict(sin_power_expansion(d, g, 12).items()) == {
        key: c for key, c in want.items() if c}


@pytest.mark.parametrize("spec", [D5, GroupSpec.cyclic(4)], ids=str)
def test_all_genus_matches_the_bernoulli_divisor_sum(spec):
    counts = bps_table(spec).counts
    for beta in counts:
        for mult in range(1, 5):
            cls = tuple(mult * b for b in beta)
            divisors = [d for d in range(1, mult * max(beta) + 1)
                        if all(b % d == 0 for b in cls)]
            for g in range(6):
                want = sum(counts.get(tuple(b // d for b in cls), 0)
                           * _genus_zero_coefficient(d, g) for d in divisors)
                assert gw_all_genus(spec, cls, g) == want, (cls, g)


def test_negative_genus_rejected():
    with pytest.raises(ConfigurationError):
        gw_all_genus(D5, (1, 0), -1)


# -- partition function ------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_per_class_equals_per_root_product(spec):
    tr = Truncation(q_total=3, big_q=3)
    by_class = partition_function(spec, tr)
    by_root = partition_function_by_roots(spec, tr)
    assert by_class.series == by_root.series
    corr = correspondence(spec)
    positives = len(root_system(corr.ade).positive_roots)
    assert len(by_class.factors) == len(bps_table(spec).counts)
    assert len(by_root.factors) == positives - len(corr.binary_nodes)


def test_per_root_product_exact_at_the_larger_ring():
    # C:8 at (6,6): per-root factor denominators reach 1024
    tr = Truncation(q_total=6, big_q=6)
    spec = GroupSpec.cyclic(8)
    assert partition_function_by_roots(spec, tr).series == partition_function(spec, tr).series


@pytest.mark.parametrize("spec", [GroupSpec.icosahedral(), GroupSpec.cyclic(8)], ids=str)
def test_per_root_product_skips_only_factors_that_are_one(spec):
    # a root of restricted degree past the q-cap keeps its factor entry, and
    # its factor, which is not multiplied in, is exactly 1
    tr = Truncation(q_total=4, big_q=4)
    corr = correspondence(spec)
    variables = q_variables(spec) + ("Q",)
    restricted = [tuple(alpha[node] for node in corr.slot_node)
                  for alpha in root_system(corr.ade).positive_roots]
    restricted = [beta for beta in restricted if any(beta)]
    by_root = partition_function_by_roots(spec, tr)
    assert by_root.factors == tuple((beta, Fraction(1, 2)) for beta in restricted)
    past = {beta for beta in restricted if sum(beta) > tr.q_total}
    assert past
    for beta in past:
        factor = macmahon_factor(variables, tr, dict(zip(variables, beta)), Fraction(1, 2))
        assert factor == MultiSeries.one(variables, tr)
    assert by_root.series == partition_function(spec, tr).series


def _sequential_product(spec, tr):
    """The per-root product multiplied into one accumulator root by root,
    and its factor list: one (restricted root, 1/2) per nonzero one."""
    corr = correspondence(spec)
    variables = q_variables(spec) + ("Q",)
    acc = MultiSeries.one(variables, tr)
    factors, built = [], {}
    for alpha in root_system(corr.ade).positive_roots:
        beta = tuple(alpha[node] for node in corr.slot_node)
        if any(beta):
            factors.append((beta, Fraction(1, 2)))
        if any(beta) and sum(beta) <= tr.q_total:
            if beta not in built:
                built[beta] = macmahon_factor(
                    variables, tr, dict(zip(variables, beta)), Fraction(1, 2))
            acc = acc * built[beta]
    return acc, tuple(factors)


@pytest.mark.parametrize("tr", [Truncation(q_total=4, big_q=4), Truncation(q_total=5, big_q=2)],
                         ids=repr)
@pytest.mark.parametrize("spec", ALL_SPECS + [GroupSpec.cyclic(20), GroupSpec.dihedral(24)],
                         ids=str)
def test_product_tree_equals_the_sequential_product_and_the_per_class_route(spec, tr):
    # the tree only reorders the multiplications of the per-root product
    tree = partition_function_by_roots(spec, tr)
    assert (tree.series, tree.factors) == _sequential_product(spec, tr)
    assert tree.series == partition_function(spec, tr).series


@pytest.mark.parametrize("tr", [Truncation(q_total=0), Truncation(big_q=2)], ids=repr)
def test_both_partition_routes_need_both_caps(tr):
    # every factor past a q-cap of 0 is 1, but the product still needs a Q cap
    for route in (partition_function, partition_function_by_roots):
        with pytest.raises(ConfigurationError):
            route(D5, tr)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_partition_function_is_the_product_of_its_factors(spec):
    # one exp of the per-class sum against one exp per recorded factor
    tr = Truncation(q_total=3, big_q=3)
    z = partition_function(spec, tr)
    variables = z.series.variables
    product = MultiSeries.one(variables, tr)
    for beta, weight in z.factors:
        product = product * macmahon_factor(
            variables, tr, dict(zip(variables, beta)), weight)
    assert z.series == product


def test_log_partition_recovers_bps_counts():
    # coefficient of q^B Q^k in log Z is -sum over j | gcd(B, k) of
    # n0(B/j) * k / j^2; at k = 1 that is -n0(B).
    tr = Truncation(q_total=4, big_q=3)
    table = bps_table(D5)
    logz = partition_function(D5, tr).series.log()
    seen = set()
    for key, coeff in logz.items():
        b1, b2, k = key
        assert k >= 1
        want = Fraction(0)
        for j in range(1, gcd(gcd(b1, b2), k) + 1):
            if b1 % j or b2 % j or k % j:
                continue
            n0 = table.counts.get((b1 // j, b2 // j))
            if n0 is not None:
                want -= n0 * Fraction(k, j * j)
        assert coeff == want
        seen.add(key)
    for beta, n0 in table.counts.items():
        if sum(beta) <= tr.q_total:
            assert logz.coefficient(
                {"q1": beta[0], "q2": beta[1], "Q": 1}) == -n0


# -- normal bundles ----------------------------------------------------------


def test_normal_bundle_types_frozen():
    assert normal_bundle_type(D5, "sgn") == (-1, -1)
    assert normal_bundle_type(D5, "rho1") == (-3, 1)
    assert normal_bundle_type(GroupSpec.cyclic(2), 0) == (-2, 0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_normal_bundle_degrees_sum_to_minus_two(spec):
    corr = correspondence(spec)
    for slot in range(len(corr.slots)):
        a, b = normal_bundle_type(spec, slot)
        assert a + b == -2
        assert a <= -1


def test_normal_bundle_rejects_unknown_irrep():
    with pytest.raises(ConfigurationError):
        normal_bundle_type(D5, "nope")
    with pytest.raises(ConfigurationError):
        normal_bundle_type(D5, 2)


@pytest.mark.parametrize("call", [
    lambda: crc.third_partial(D5, 1.2, 1, 1),
    lambda: crc.taylor_third_partial(crc.orbifold_potential(D5, 3), 0.9, 0, 0),
    lambda: normal_bundle_type(D5, 1.7),
    lambda: gw_genus0(D5, (1.9, 0)),
    lambda: gw_all_genus(D5, (1.5, 0.2), 0),
    lambda: gw_all_genus(D5, (1, 0), 0.5),
    lambda: curve_class(D5, (1.0, 0, 0, 0, 0)),
], ids=["third_partial", "taylor_third_partial", "normal_bundle_type", "gw_genus0",
        "gw_all_genus", "gw_all_genus-genus", "curve_class"])
def test_non_integral_indices_are_refused(call):
    # each used to truncate (or, for curve_class, echo) the float
    with pytest.raises(ConfigurationError, match="integer"):
        call()


# -- serialization -----------------------------------------------------------


def test_bps_jsonable_matches_schema():
    payload = bps_table(D5).jsonable()
    jsonschema.validate(payload, BPS_TABLE)
    assert payload[0]["class"] == [0, 1]
    assert payload[0]["n0"] == "4"
    assert [row["class"] for row in payload] == sorted(row["class"] for row in payload)
