"""Acceptance gate: one test per criterion, in order.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Exact claims use rational equality; numeric claims state their
absolute tolerance inline.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath as mp
import pytest

from qmckay.crc import (
    b_series,
    orbifold_potential,
    taylor_third_partial,
    third_partial,
)
from qmckay.exact import mat_inverse
from qmckay.grouprep import (
    GroupSpec,
    age,
    correspondence,
    hard_lefschetz_check,
    hard_lefschetz_exponents,
    inner_product,
    inverse_exponents,
    mckay_graph,
)
from qmckay.gwtheory import (
    bps_table,
    gw_genus0,
    partition_function,
    partition_function_by_roots,
)
from qmckay.intersect import mckay_pairing, pairing_inverse_check, surface_integrals
from qmckay.rootsys import ADEType, parse_ade, root_system
from qmckay.series import MultiSeries, Truncation, macmahon_factor

D5 = GroupSpec.dihedral(3)

SUPPORTED = (
    [GroupSpec.cyclic(k) for k in range(2, 9)]
    + [GroupSpec.dihedral(m) for m in range(2, 7)]
    + [GroupSpec.tetrahedral(), GroupSpec.octahedral(), GroupSpec.icosahedral()]
)

D5_POSITIVE_ROOTS = {
    (0, 0, 0, 1, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1), (1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0),
    (0, 0, 1, 0, 1), (1, 1, 1, 0, 0), (0, 1, 1, 1, 0), (0, 1, 1, 0, 1),
    (0, 0, 1, 1, 1), (1, 1, 1, 1, 0), (1, 1, 1, 0, 1), (0, 1, 1, 1, 1),
    (0, 1, 2, 1, 1), (1, 1, 1, 1, 1), (1, 1, 2, 1, 1), (1, 2, 2, 1, 1),
}


def test_criterion_01_d5_positive_roots_exact():
    rs = root_system(parse_ade("D5"))
    assert len(rs.positive_roots) == 20
    assert set(rs.positive_roots) == D5_POSITIVE_ROOTS


def test_criterion_02_d5_bps_table_exact():
    assert bps_table(D5).counts == {
        (1, 0): Fraction(1),
        (1, 1): Fraction(2),
        (0, 1): Fraction(4),
        (0, 2): Fraction(1, 2),
        (1, 2): Fraction(1),
    }


def test_criterion_03_d5_partition_function_exact():
    variables = ("q1", "q2", "Q")
    tr = Truncation(q_total=6, big_q=6)
    one = MultiSeries.one(variables, tr)

    def macmahon(beta):
        acc = one
        for m in range(1, tr.big_q + 1):
            exponents = dict(beta)
            exponents["Q"] = m
            acc = acc * (one - MultiSeries.monomial(variables, tr, exponents)) ** m
        return acc

    independent = (
        macmahon({"q1": 1})
        * macmahon({"q1": 1, "q2": 1}) ** 2
        * macmahon({"q2": 1}) ** 4
        * macmahon({"q2": 2}).pow_rational(Fraction(1, 2))
        * macmahon({"q1": 1, "q2": 2})
    )
    assert partition_function(D5, tr).series == independent


def test_criterion_04_multiple_cover_formula_exact():
    for d in range(1, 13):
        want = Fraction(8 if d % 2 == 0 else 4, d ** 3)
        assert gw_genus0(D5, (0, d)) == want, d


@pytest.mark.parametrize("spec", SUPPORTED, ids=str)
def test_criterion_05_fiber_cardinalities_exact(spec):
    corr = correspondence(spec)
    table = bps_table(spec)
    assert set(table.fibers.values()) <= {1, 2, 4, 8}
    positives = len(root_system(corr.ade).positive_roots)
    assert sum(table.fibers.values()) == positives - len(corr.binary_nodes)


@pytest.mark.parametrize("ade", (
    [ADEType("A", n) for n in range(1, 9)]
    + [ADEType("D", n) for n in range(4, 9)]
    + [ADEType("E", n) for n in (6, 7, 8)]
), ids=str)
def test_criterion_06_root_sum_identity_exact(ade):
    rs = root_system(ade)
    n = rs.rank
    total = [[Fraction(0)] * n for _ in range(n)]
    for alpha in rs.positive_roots:
        for i in range(n):
            if alpha[i]:
                for j in range(n):
                    total[i][j] += alpha[i] * alpha[j]
    inverse = mat_inverse([[Fraction(x) for x in row] for row in rs.cartan])
    for i in range(n):
        for j in range(n):
            assert total[i][j] == rs.coxeter_number * inverse[i][j]


def test_criterion_07_pairing_inversion_exact():
    for spec in SUPPORTED:
        assert pairing_inverse_check(spec), spec
    matrix, t_power = mckay_pairing(D5)
    assert matrix == ((-3, 1), (1, -1))
    assert t_power == 1


def test_criterion_08_surface_integrals_exact():
    d5_surface = surface_integrals(D5)
    assert d5_surface.zero_point.value == Fraction(1, 3)
    assert d5_surface.zero_point.t_power == -2
    for spec in SUPPORTED:
        corr = correspondence(spec)
        data = surface_integrals(spec)
        cartan = [[Fraction(x) for x in row] for row in root_system(corr.ade).cartan]
        inverse = mat_inverse(cartan)
        for i, row in enumerate(data.two_point):
            for j, value in enumerate(row):
                assert value == -inverse[i][j], spec


def test_criterion_09_hard_lefschetz_ages():
    for spec in SUPPORTED:
        ok, ages = hard_lefschetz_check(correspondence(spec).group)
        assert ok, spec
        assert all(a == 1 for a in ages[1:]), spec
    # synthetic SU(3) element outside SO(3): ages (1, 2), check fails
    exps = (1, 1, 1)
    assert age(exps, 3) == 1
    assert age(inverse_exponents(exps, 3), 3) == 2
    assert not hard_lefschetz_exponents(exps, 3)


# the paper's D5 = [C^3/S_3] potential: x1 is the flip direction (class s),
# x2 the rotation direction (r1)
D5_POTENTIAL = {
    ("s", 2, "r1", 1): Fraction(1, 2),
    ("s", 0, "r1", 3): Fraction(1, 18),
    ("s", 4, "r1", 0): Fraction(-5, 48),
    ("s", 2, "r1", 2): Fraction(-1, 6),
    ("s", 0, "r1", 4): Fraction(-1, 36),
    ("s", 4, "r1", 1): Fraction(1, 12),
    ("s", 2, "r1", 3): Fraction(1, 18),
    ("s", 0, "r1", 5): Fraction(1, 324),
}


def test_criterion_10_d5_potential_coefficients_tol_1e9():
    pot = orbifold_potential(D5, 5, dps=64)
    with mp.workdps(80):
        for (_, es, _, er), target in D5_POTENTIAL.items():
            got = pot.coefficient({"s": es, "r1": er})
            err = abs(got - mp.mpf(target.numerator) / target.denominator)
            assert err < mp.mpf("1e-9"), ((es, er), err)


def test_criterion_10_d5_potential_coefficients_exact():
    pot = orbifold_potential(D5, 5, dps=64)
    assert pot.class_labels == ("r1", "s")
    for (_, es, _, er), target in D5_POTENTIAL.items():
        assert pot.rationals[(er, es)] == target, (es, er)
    # and nothing else through degree 5: the odd flip powers vanish exactly
    assert len(pot.rationals) == len(D5_POTENTIAL)


def test_criterion_11_b_series_tol_1e9():
    with mp.workdps(80):
        got = b_series(D5, 8, dps=64)
        want = mp.taylor(
            lambda u: mp.tan(u / mp.sqrt(12) + mp.pi / 3) / mp.sqrt(3), 0, 7
        )
        for j, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) < mp.mpf("1e-9"), j


@pytest.mark.parametrize("spec", [D5, GroupSpec.dihedral(2)], ids=str)
def test_criterion_12_cross_method_tol_1e20(spec):
    pot = orbifold_potential(spec, 3, dps=64)
    with mp.workdps(80):
        for triple in combinations_with_replacement(pot.class_labels, 3):
            via_taylor = taylor_third_partial(pot, *triple)
            direct = third_partial(spec, *triple, dps=64)
            assert abs(via_taylor - direct) < mp.mpf("1e-20"), triple


@pytest.mark.parametrize("spec", SUPPORTED, ids=str)
def test_criterion_13_property_suite(spec):
    tr = Truncation(q_total=3, big_q=3)
    z = partition_function(spec, tr)
    # per-class and per-root factorizations agree exactly
    assert z.series == partition_function_by_roots(spec, tr).series
    # exp/log round-trip is exact
    assert z.series.log().exp() == z.series
    # MacMahon weight additivity on this group's first class
    variables = z.series.variables
    beta = dict(zip(variables, min(bps_table(spec).counts)))
    half = macmahon_factor(variables, tr, beta, Fraction(1, 2))
    assert half * half == macmahon_factor(variables, tr, beta, 1)
    # character orthogonality for the group and its binary cover, tol 1e-30
    corr = correspondence(spec)
    with mp.workdps(80):
        for model in (corr.group, corr.binary_group):
            n = len(model.irreps)
            for a in range(n):
                for b in range(a, n):
                    value = inner_product(model, model.table[a], model.table[b])
                    target = 1 if a == b else 0
                    assert abs(value - target) < mp.mpf("1e-30"), (spec, a, b)
    # McKay graph of the binary cover is the affine ADE diagram
    rs = root_system(corr.ade)
    theta = rs.highest_root
    n = rs.rank
    attach = [sum(rs.cartan[p][q] * theta[q] for q in range(n)) for p in range(n)]
    expected = [[0] * (n + 1) for _ in range(n + 1)]
    position = {0: 0}
    for p, irrep_idx in enumerate(corr.node_irreps):
        position[irrep_idx] = p + 1
    for p in range(n):
        expected[0][p + 1] = expected[p + 1][0] = attach[p]
        for q in range(n):
            if p != q and rs.cartan[p][q] == -1:
                expected[p + 1][q + 1] = 1
    graph = mckay_graph(corr.binary_group)
    assert len(graph.adjacency) == n + 1
    for i in range(n + 1):
        for j in range(n + 1):
            assert graph.adjacency[i][j] == expected[position[i]][position[j]]
