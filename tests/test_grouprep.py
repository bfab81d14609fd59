import hashlib
import inspect
import json
import math
import random
import re
from fractions import Fraction
from functools import cache

import mpmath as mp
import pytest

import qmckay.grouprep as grouprep
import qmckay.gwtheory as gwtheory
import qmckay.intersect as intersect
import qmckay.modular as modular
from qmckay.crc import as_mpc
from qmckay.errors import ConfigurationError, InternalConsistencyError
from qmckay.grouprep import (
    Cyclotomic,
    GroupSpec,
    age,
    build_binary_group,
    build_group,
    binary_simple_roots,
    class_multiplication,
    correspondence,
    exp_turn,
    hard_lefschetz_check,
    hard_lefschetz_exponents,
    inner_product,
    inner_products,
    inverse_exponents,
    mckay_graph,
    pulls_back,
    root_system_of,
    two_cos_turn,
)
from qmckay.rootsys import ADEType, root_system
from qmckay.series import MultiSeries, Truncation

ALL_SPECS = (
    [GroupSpec.cyclic(k) for k in range(2, 9)]
    + [GroupSpec.dihedral(m) for m in range(2, 7)]
    + [GroupSpec.tetrahedral(), GroupSpec.octahedral(), GroupSpec.icosahedral()]
)

IDS = [str(s) for s in ALL_SPECS]


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        GroupSpec.cyclic(1)
    with pytest.raises(ConfigurationError):
        GroupSpec.dihedral(1)
    assert GroupSpec.cyclic(4).order == 4
    assert GroupSpec.dihedral(3).order == 6
    assert GroupSpec.icosahedral().order == 60


@pytest.mark.parametrize("args, message", [
    (("cyclic", 1), "cyclic groups need parameter k >= 2"),
    (("dihedral", 1), "dihedral groups need parameter m >= 2"),
    (("tetrahedral", 2), "tetrahedral takes no parameter"),
    (("affine", 3), "unknown group family 'affine'"),
])
def test_spec_validation_messages(args, message):
    with pytest.raises(ConfigurationError) as info:
        GroupSpec(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("build", [
    lambda: GroupSpec("cyclic", 2.5),
    lambda: correspondence(GroupSpec("cyclic", 3.0)),
    lambda: GroupSpec("cyclic", "3"),
    lambda: GroupSpec("tetrahedral", 0.0),
    lambda: root_system(ADEType("A", 3.0)),
    lambda: MultiSeries.one(("q1", "Q"), Truncation(q_total=2.5, big_q=2)),
    lambda: Truncation(lam=Fraction(1)),
], ids=["cyclic-2.5", "cyclic-3.0", "cyclic-str", "tetrahedral-0.0", "A-3.0", "q_total-2.5",
        "lam-Fraction"])
def test_non_integer_parameters_are_refused_at_construction(build):
    # each used to construct, then fail inside a layer with a TypeError or AttributeError
    with pytest.raises(ConfigurationError, match="integer"):
        build()


def test_root_system_assignment():
    assert root_system_of(GroupSpec.cyclic(2)) == ADEType("A", 3)
    assert root_system_of(GroupSpec.cyclic(5)) == ADEType("A", 9)
    assert root_system_of(GroupSpec.dihedral(3)) == ADEType("D", 5)
    assert root_system_of(GroupSpec.tetrahedral()) == ADEType("E", 6)
    assert root_system_of(GroupSpec.octahedral()) == ADEType("E", 7)
    assert root_system_of(GroupSpec.icosahedral()) == ADEType("E", 8)


def test_sigma3_closed_form():
    g = build_group(GroupSpec.dihedral(3))
    assert [c.label for c in g.classes] == ["e", "r1", "s"]
    assert [c.size for c in g.classes] == [1, 2, 3]
    assert [c.element_order for c in g.classes] == [1, 3, 2]
    assert [v.integer_value() for v in g.chi_v] == [3, 0, -1]
    assert sorted(r.dim for r in g.irreps) == [1, 1, 2]


def test_klein_four_closed_form():
    g = build_group(GroupSpec.dihedral(2))
    assert g.order == 4
    assert all(c.size == 1 for c in g.classes)
    assert [v.integer_value() for v in g.chi_v] == [3, -1, -1, -1]
    assert all(r.dim == 1 for r in g.irreps)


@pytest.mark.parametrize(
    "spec,dims",
    [
        (GroupSpec.tetrahedral(), [1, 1, 1, 2, 2, 2, 3]),
        (GroupSpec.octahedral(), [1, 1, 2, 2, 2, 3, 3, 4]),
        (GroupSpec.icosahedral(), [1, 2, 2, 3, 3, 4, 4, 5, 6]),
    ],
    ids=["2T", "2O", "2I"],
)
def test_binary_exceptional_dimensions(spec, dims):
    g = build_binary_group(spec)
    assert sorted(r.dim for r in g.irreps) == dims
    assert sum(r.dim ** 2 for r in g.irreps) == g.order


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_character_orthogonality(spec):
    for model in (build_group(spec), build_binary_group(spec)):
        n = len(model.irreps)
        for a in range(n):
            for b in range(a, n):
                value = inner_product(model, model.table[a], model.table[b])
                assert value == (1 if a == b else 0), (spec, a, b)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_inverse_class_conjugates_characters(spec):
    for model in (build_group(spec), build_binary_group(spec)):
        for ci, cls in enumerate(model.classes):
            inv = model.inverse_class[ci]
            assert model.classes[inv].size == cls.size
            assert model.classes[inv].element_order == cls.element_order
            for row in model.table:
                assert row[ci] == row[inv].conjugate()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_binary_center(spec):
    g = build_binary_group(spec)
    assert g.center_class is not None
    z = g.classes[g.center_class]
    assert z.size == 1 and z.element_order == 2
    assert g.chi_u[g.center_class].integer_value() == -2


def _affine_adjacency(corr):
    """Expected McKay adjacency in irrep order: the affine ADE diagram.

    The trivial irrep is the affine node; it attaches to node p exactly
    when the highest root has inner product 1 with the simple root there.
    """
    rs = root_system(corr.ade)
    n = rs.rank
    theta = rs.highest_root
    attach = [
        sum(rs.cartan[p][q] * theta[q] for q in range(n)) for p in range(n)
    ]
    assert all(a in (0, 1) for a in attach)
    size = n + 1
    expected = [[0] * size for _ in range(size)]
    # position 0 = trivial irrep, position of node p = its irrep index
    position = {0: 0}
    for p, irrep_idx in enumerate(corr.node_irreps):
        position[irrep_idx] = p + 1
    for p in range(n):
        expected[0][p + 1] = expected[p + 1][0] = attach[p]
        for q in range(n):
            if p != q and rs.cartan[p][q] == -1:
                expected[p + 1][q + 1] = 1
    return expected, position


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_mckay_graph_is_affine_ade(spec):
    corr = correspondence(spec)
    graph = mckay_graph(corr.binary_group)
    expected, position = _affine_adjacency(corr)
    size = len(expected)
    assert len(graph.adjacency) == size
    for i in range(size):
        for j in range(size):
            assert (
                graph.adjacency[i][j] == expected[position[i]][position[j]]
            ), (spec, i, j)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_affine_marks_are_dimensions(spec):
    corr = correspondence(spec)
    theta = root_system(corr.ade).highest_root
    for p, irrep_idx in enumerate(corr.node_irreps):
        assert corr.binary_group.irreps[irrep_idx].dim == theta[p]


def test_binary_nodes_by_family():
    # the complement of the irreps that factor through G
    assert binary_simple_roots(GroupSpec.cyclic(2)) == (0, 2)
    assert binary_simple_roots(GroupSpec.cyclic(3)) == (0, 2, 4)
    assert binary_simple_roots(GroupSpec.dihedral(2)) == (1,)
    assert binary_simple_roots(GroupSpec.dihedral(3)) == (1, 3, 4)
    assert binary_simple_roots(GroupSpec.dihedral(4)) == (1, 3)
    assert binary_simple_roots(GroupSpec.tetrahedral()) == (1, 2, 4)
    assert binary_simple_roots(GroupSpec.octahedral()) == (0, 3, 5)
    assert binary_simple_roots(GroupSpec.icosahedral()) == (0, 3, 5, 7)


def test_d5_node_dictionary():
    corr = correspondence(GroupSpec.dihedral(3))
    assert corr.slot_labels == ("sgn", "rho1")
    assert corr.slot_node == (0, 2)
    assert corr.node_slot == (0, None, 1, None, None)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_all_ages_are_one(spec):
    g = build_group(spec)
    ok, ages = hard_lefschetz_check(g)
    assert ok
    assert ages[0] == 0
    assert all(a == 1 for a in ages[1:])


def test_synthetic_age_counterexample():
    # an SU(3) element outside SO(3): eigenexponents (1,1,1) mod 3
    exps = (1, 1, 1)
    assert age(exps, 3) == 1
    assert inverse_exponents(exps, 3) == (2, 2, 2)
    assert age((2, 2, 2), 3) == 2
    assert not hard_lefschetz_exponents(exps, 3)


def test_age_validation():
    with pytest.raises(ConfigurationError):
        age((1, 1), 3)
    with pytest.raises(ConfigurationError):
        age((1, 1, 2), 3)  # det != 1
    with pytest.raises(ConfigurationError):
        age((0, 0, 3), 3)  # exponent out of range
    with pytest.raises(ConfigurationError):
        age((0, 0, 0), 0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_class_and_irrep_counts_match(spec):
    for model in (build_group(spec), build_binary_group(spec)):
        assert len(model.classes) == len(model.irreps)
        assert sum(c.size for c in model.classes) == model.order
        assert sum(r.dim ** 2 for r in model.irreps) == model.order


# -- exact values in Z[zeta_N] ---------------------------------------------------


# A test-only oracle, independent of the F_p rule of `modular.conjugates`:
# the unique representative of a value of Z[zeta_n] of degree < phi(n),
# its reduction modulo the cyclotomic polynomial Phi_n.


def _poly_divide(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of integer polynomials (constant term first) when den, which
    is monic, divides num exactly."""
    num = list(num)
    d = len(den) - 1
    quotient = [0] * (len(num) - d)
    for i in range(len(quotient) - 1, -1, -1):
        c = num[i + d]
        quotient[i] = c
        if c:
            for j, p in enumerate(den):
                num[i + j] -= c * p
    return quotient


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n, constant term first: x^n - 1 divided by every Phi_d, d | n, d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def reduce_cyclotomic(coefficients: list[int], n: int) -> tuple[int, ...]:
    """``coefficients[e]`` multiplies zeta_n^e; two values are equal exactly
    when their reductions are."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    acc = list(coefficients)
    for i in range(len(acc) - 1, d - 1, -1):
        if acc[i]:
            for j, p in enumerate(phi[:d]):
                acc[i - d + j] -= acc[i] * p
    return tuple(acc[:d])


def _reduced(value: Cyclotomic) -> tuple[int, ...]:
    dense = [0] * value.n
    for e, c in value.terms:
        dense[e] = c
    return reduce_cyclotomic(dense, value.n)


def test_cyclotomic_polynomials_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)
    assert len(cyclotomic_polynomial(60)) - 1 == 16


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in range(1, 121):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in want), n


@pytest.mark.parametrize("n", [4, 12, 24, 40, 60, 120])
def test_equality_in_fp_matches_the_phi_n_oracle(n):
    rng = random.Random(n)

    def element(size, spread):
        return Cyclotomic(n, {rng.randrange(n): rng.randint(-spread, spread) for _ in range(size)})

    # zeros whose terms differ: a full coset sum of the d-th roots of unity
    zeros = [Cyclotomic(n, {a + j * n // d: 1 for j in range(d)})
             for d in range(2, n + 1) if n % d == 0 for a in (0, 1)]
    for zero in zeros:
        assert zero.terms and zero == 0 and zero.integer_value() == 0
        assert _reduced(zero) == _reduced(Cyclotomic.integer(n, 0))
    phi_n = len(cyclotomic_polynomial(n)) - 1
    for _ in range(40):
        a, b = element(rng.randint(1, 6), 5), element(rng.randint(1, 6), 5)
        c = a + rng.choice(zeros) * element(3, 3)  # equal to a, other terms
        seven = c - a + 7
        for x, y in ((a, b), (a, c), (b, c), (seven, Cyclotomic.integer(n, 7))):
            assert (x == y) == (_reduced(x) == _reduced(y)), (x, y)
            if x == y:
                assert hash(x) == hash(y)
        for x in (a, b, c, seven):
            head, *rest = _reduced(x)
            assert x.integer_value() == (None if any(rest) else head)
        assert modular.conjugates(n, (a - c).terms) == [0] * phi_n
    if n % 24 == 0:  # sqrt(2) * sqrt(2) = 2
        sqrt2 = two_cos_turn(Fraction(1, 8), n)
        assert (sqrt2 * sqrt2).terms != ((0, 2),) and sqrt2 * sqrt2 == 2
    if n % 60 == 0:  # phi^2 = phi + 1
        phi = 1 + two_cos_turn(Fraction(1, 5), n)
        assert (phi * phi).terms != (phi + 1).terms and phi * phi == phi + 1
        assert _reduced(phi * phi) == _reduced(phi + 1)


def test_integer_value_reads_rationals_that_are_not_reduced():
    omega = exp_turn(Fraction(1, 3), 12)
    bar = omega + omega.conjugate()
    assert bar.terms == ((4, 1), (8, 1))
    assert modular.conjugates(12, bar.terms) == [-1] * 4
    assert bar.integer_value() == -1
    # the twelfth roots of unity sum to 0
    assert (Cyclotomic(12, {e: 1 for e in range(12)}) + 5).integer_value() == 5
    assert two_cos_turn(Fraction(1, 4), 24).integer_value() == 0
    assert two_cos_turn(Fraction(1, 6), 24).integer_value() == 1


def test_values_past_the_prime_bound_raise():
    p = modular.prime(24, 0)[0]
    assert Cyclotomic.integer(12, p // 2).integer_value() == p // 2  # 2 l1 = p - 1
    big = Cyclotomic.integer(12, p // 2 + 1)
    with pytest.raises(InternalConsistencyError):
        big.integer_value()
    with pytest.raises(InternalConsistencyError):
        big == Cyclotomic(12, {4: 1, 8: 1})
    assert big == Cyclotomic.integer(12, p // 2 + 1)  # identical terms need no image


def test_hash_takes_the_images_once(monkeypatch):
    sqrt2 = two_cos_turn(Fraction(1, 8), 24)
    omega = exp_turn(Fraction(1, 3), 12)
    calls = []
    real = grouprep.conjugates
    monkeypatch.setattr(grouprep, "conjugates", lambda n, terms: calls.append(n) or real(n, terms))
    hash(sqrt2)
    assert calls == [24]
    # a rational value hashes as its int, so hash agrees with == on ints
    assert hash(omega + omega.conjugate()) == hash(-1)


def test_conjugates_build_one_table_per_order():
    modular.conjugates(36, ((1, 1),))
    before = modular._conjugation_table.cache_info()
    assert modular.conjugates(36, ((0, 2), (18, 1))) == [1] * 12  # 2 + zeta_36^18 = 1
    after = modular._conjugation_table.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)


def test_surds_are_exact():
    sqrt2 = two_cos_turn(Fraction(1, 8), 24)
    assert sqrt2 * sqrt2 == 2
    phi = 1 + two_cos_turn(Fraction(1, 5), 60)
    assert phi * phi == phi + 1
    omega = exp_turn(Fraction(1, 3), 12)
    assert omega * omega + omega + 1 == 0
    assert omega.conjugate() == omega * omega
    assert (omega + omega.conjugate()).integer_value() == -1
    assert phi.integer_value() is None
    assert hash(omega * omega * omega) == hash(1)


def test_as_mpc_rounds_once_at_the_ambient_precision():
    phi = 1 + two_cos_turn(Fraction(1, 5), 60)
    omega = exp_turn(Fraction(1, 3), 12)
    for dps in (10, 15, 64):
        with mp.workdps(dps + 30):
            golden, cube_root = (1 + mp.sqrt(5)) / 2, mp.mpc(-1, mp.sqrt(3)) / 2
        with mp.workdps(dps):
            z = as_mpc(phi)
            # self-conjugate: summed as cosines, imaginary part exactly 0
            assert z.imag == 0
            assert z.real == +golden
            assert as_mpc(omega) == +cube_root
    assert as_mpc(Cyclotomic.integer(12, -3)) == mp.mpc(-3)


def test_inner_product_rejects_non_integer_sums():
    model = build_group(GroupSpec.cyclic(3))
    n = model.chi_v[0].n
    one = Cyclotomic.integer(n, 1)
    zero = Cyclotomic.integer(n, 0)
    # (1/3) * zeta_6 is not rational, and 1/3 is not an integer
    with pytest.raises(InternalConsistencyError):
        inner_product(model, [exp_turn(Fraction(1, n), n), zero, zero], [one, one, one])
    with pytest.raises(InternalConsistencyError):
        inner_product(model, [one, zero, zero], [one, one, one])
    assert inner_product(model, [one, one, one], [one, one, one]) == 1


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_class_products_count_every_pair_once(spec):
    # C_i C_j has |C_i||C_j| terms and C_k takes N_ijk |C_k| of them; the
    # identity class is neutral, and C_i C_j meets it only for j = inverse(i)
    model = build_group(spec)
    constants = class_multiplication(model)
    sizes = [c.size for c in model.classes]
    identity = [[int(j == k) for k in range(len(sizes))] for j in range(len(sizes))]
    assert [list(line) for line in constants[0]] == identity
    for i, plane in enumerate(constants):
        for j, line in enumerate(plane):
            assert min(line) >= 0
            assert sum(n * s for n, s in zip(line, sizes)) == sizes[i] * sizes[j]
            assert line == constants[j][i]
            assert line[0] == (sizes[i] if j == model.inverse_class[i] else 0)


def test_class_multiplication_rejects_a_broken_table():
    model = build_group(GroupSpec.dihedral(3))
    rows = list(model.table)
    rows[1] = (rows[1][0], rows[1][1], rows[1][1])  # sgn made 1 on the flips
    fields = {name: getattr(model, name) for name in model.__match_args__}
    with pytest.raises(InternalConsistencyError):
        class_multiplication(type(model)(**fields | {"table": tuple(rows)}))


# -- the sums in F_p against an independent Z[zeta_N] oracle -------------------

ORACLE_SPECS = ALL_SPECS + [GroupSpec.cyclic(16), GroupSpec.cyclic(20), GroupSpec.dihedral(24)]
ORACLE_IDS = [str(s) for s in ORACLE_SPECS]


def _oracle_sum(weights, row_a, row_b, divisor):
    """(1/divisor) * sum of weight * a * conj(b), accumulated as integer
    coefficients of powers of zeta_n and reduced once modulo Phi_n."""
    n = row_a[0].n
    acc = [0] * n
    for weight, a, b in zip(weights, row_a, row_b):
        for ea, ca in a.terms:
            for eb, cb in b.terms:
                acc[(ea - eb) % n] += weight * ca * cb
    total, *rest = reduce_cyclotomic(acc, n)
    assert not any(rest) and total % divisor == 0
    return total // divisor


def _oracle_products(model, left, right, factor=None):
    sizes = [c.size for c in model.classes]
    if factor is not None:
        left = [[f * a for f, a in zip(factor, row)] for row in left]
    return tuple(tuple(_oracle_sum(sizes, a, b, model.order) for b in right) for a in left)


def _oracle_class_multiplication(model):
    big_d = math.lcm(*(r.dim for r in model.irreps))
    columns = list(zip(*model.table))
    out = [[None] * len(columns) for _ in columns]
    for i, ci in enumerate(model.classes):
        for j, cj in enumerate(model.classes[i:], i):
            weights = [ci.size * cj.size * big_d // r.dim for r in model.irreps]
            products = [a * b for a, b in zip(columns[i], columns[j])]
            out[i][j] = out[j][i] = tuple(
                _oracle_sum(weights, products, column, model.order * big_d) for column in columns
            )
    return tuple(map(tuple, out))


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_sums_in_fp_match_the_cyclotomic_oracle(spec):
    corr = correspondence(spec)
    g, gh = corr.group, corr.binary_group
    assert mckay_graph(gh).adjacency == _oracle_products(gh, gh.table, gh.table, gh.chi_u)
    slots = [g.table[s] for s in corr.slots]
    assert intersect.mckay_pairing(spec) == (
        _oracle_products(g, slots, slots, [v - 3 for v in g.chi_v]), 1)
    for model in (g, gh):
        # the constants serve the rotation group; the binary ones are checked
        # where the oracle is quick
        if model is g or spec in ALL_SPECS:
            assert class_multiplication(model) == _oracle_class_multiplication(model)
        assert inner_products(model, model.table, model.table) == _oracle_products(
            model, model.table, model.table)
    # unequal sides, with and without a factor row
    assert inner_products(g, [g.chi_v], g.table, g.chi_v) == _oracle_products(
        g, [g.chi_v], g.table, g.chi_v)
    assert inner_products(gh, gh.table[1:3], gh.table) == _oracle_products(
        gh, gh.table[1:3], gh.table)


@pytest.mark.parametrize("spec", [GroupSpec.cyclic(20), GroupSpec.dihedral(24)], ids=str)
def test_mckay_graph_and_pairing_form_no_cyclotomic_products(monkeypatch, spec):
    corr = correspondence(spec)
    calls = []
    product, images = Cyclotomic.__mul__, grouprep.conjugates

    def counting_product(self, other):
        calls.append("product")
        return product(self, other)

    def counting_images(n, terms):
        calls.append("conjugates")
        return images(n, terms)

    monkeypatch.setattr(Cyclotomic, "__mul__", counting_product)
    monkeypatch.setattr(Cyclotomic, "__rmul__", counting_product)
    monkeypatch.setattr(grouprep, "conjugates", counting_images)
    mckay_graph(corr.binary_group)
    intersect.mckay_pairing(spec)
    assert calls == []
    # the counters do count
    gh = corr.binary_group
    (gh.chi_u[1] * gh.table[1][1]).integer_value()
    assert calls == ["product", "conjugates"]


def _with_table(model, rows):
    fields = {name: getattr(model, name) for name in model.__match_args__}
    return type(model)(**fields | {"table": tuple(map(tuple, rows))})


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_one_entry_times_zeta_breaks_the_correspondence(monkeypatch, spec):
    # irrep 1 at the central involution, times zeta_N: every sum through it
    # changes by a nonzero multiple of zeta_N - 1, so none is rational
    g, gh, nodes, pulled = grouprep._build_family(spec)
    zeta = Cyclotomic(gh.table[0][0].n, {1: 1})
    rows = [list(row) for row in gh.table]
    rows[1][gh.center_class] = rows[1][gh.center_class] * zeta
    broken = _with_table(gh, rows)
    with pytest.raises(InternalConsistencyError):
        mckay_graph(broken)
    monkeypatch.setattr(grouprep, "_build_family", lambda _: (g, broken, nodes, pulled))
    with pytest.raises(InternalConsistencyError):
        correspondence.__wrapped__(spec)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_pulls_back_by_label_names_the_pulled_irreps(spec):
    _, gh, _, pulled = grouprep._build_family(spec)
    assert tuple(i for i, r in enumerate(gh.irreps) if pulls_back(gh, r.label)) == pulled
    # chi(z) = +-dim decides it, whatever terms store the value
    minus_one = Cyclotomic(gh.table[0][0].n, {gh.table[0][0].n // 2: 1})
    rows = [list(row) for row in gh.table]
    rows[0][gh.center_class] = -minus_one  # +1, stored as -zeta^(n/2)
    rows[1][gh.center_class] = -rows[1][gh.center_class] * minus_one
    flipped = _with_table(gh, rows)
    assert pulls_back(flipped, gh.irreps[0].label)
    assert pulls_back(flipped, gh.irreps[1].label) == pulls_back(gh, gh.irreps[1].label)
    rows[1][gh.center_class] = rows[1][gh.center_class] + 1
    with pytest.raises(InternalConsistencyError, match="neither"):
        pulls_back(_with_table(gh, rows), gh.irreps[1].label)
    with pytest.raises(ConfigurationError):
        pulls_back(build_group(spec), gh.irreps[0].label)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_one_zeta_order_per_correspondence(spec):
    corr = correspondence(spec)
    orders = {
        v.n
        for model in (corr.group, corr.binary_group)
        for row in model.table + tuple(r for r in (model.chi_v, model.chi_u) if r)
        for v in row
    }
    want = {
        "cyclic": 2 * spec.parameter,
        "dihedral": math.lcm(2 * spec.parameter, 4),
        "tetrahedral": 12,
        "octahedral": 24,
        "icosahedral": 60,
    }[spec.kind]
    assert orders == {want}


@pytest.mark.parametrize("module", [grouprep, gwtheory, intersect], ids=lambda m: m.__name__)
def test_exact_layers_take_no_precision(module):
    for name, obj in vars(module).items():
        if inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        assert "dps" not in inspect.signature(obj).parameters, name


TABLE_SPECS = (
    [GroupSpec.dihedral(m) for m in range(2, 31)]
    + [GroupSpec.cyclic(k) for k in range(2, 21)]
    + [GroupSpec.tetrahedral(), GroupSpec.octahedral(), GroupSpec.icosahedral()]
)

# SHA-256 of `_table_record` for each of TABLE_SPECS.  The goldens and the
# quaternion oracle compare values; this pins each entry's stored terms, which
# `as_mpc` sums, so a table rewritten into an equal but differently written
# element of Z[zeta_N], which can move numeric bits downstream, fails here,
# under the name of its group.
TABLE_DIGESTS = {
    "dihedral(2)": "c8f9fb26a826ee4387fa23480392aef0d0b5b9674c4a072f3a956185845c1f39",
    "dihedral(3)": "a9183d71d83e23cccb2eeb94071fd2d2f66cbaf65785cb23d4d47b9eac25a32f",
    "dihedral(4)": "1381ea13e43bc8aa93598ab27c686d31ba978e5979d495b700776a37a43896a8",
    "dihedral(5)": "3d6f47de836a0bd7201236fd1b8ddbe9bf367f250673541318e085eb8373f036",
    "dihedral(6)": "f56858af55cb367a122090f66d8c62b4643b24d69cb1fc4a38366fae3b1d59d1",
    "dihedral(7)": "5c8a5d58800ea102eddd8d5cfcf3765d523b38dd731148314fe29ffe3316f908",
    "dihedral(8)": "87dacaacd7de637eaddb033c2e6b73395d8c7813257e0d0a71b3479896c29703",
    "dihedral(9)": "940983732edf887f87925245c1b2f5fca93391965251950d63600a5bc05027e1",
    "dihedral(10)": "bc9d0d565b429a4ace5c03644af974587a3d5a7cfb033f0cdf95ea953c25e17e",
    "dihedral(11)": "fc8a23d4918b97d4905a7f77edc6352c26f94b0fc86243c825f43b965b5aa249",
    "dihedral(12)": "70c986aa08db6e5bf9d5c6107dd315f5d89c3faab13418279003ae03b0ca45e1",
    "dihedral(13)": "135f0049b7ce399c2f347f38faa52c49a2314be2f5a5b0b56543a6e6d8c5806c",
    "dihedral(14)": "378c0b62e6c93d6fcb23596082b8b9a5451f908b6d262a231104b09711f8e6c0",
    "dihedral(15)": "41e6c3587141c10188c64eed94a2f64122b4895fc345fb8f5ed31fd9cd065876",
    "dihedral(16)": "2585328e013f73ec15520c9b5bfd9d99de102a50d89696e029e870be1643aeb1",
    "dihedral(17)": "442c97ae785f929ae89954931103f148727d640220c700eaeda2ff961ac91177",
    "dihedral(18)": "f0090f8837840dfaee3ca3226f50172d9fe76e669f70fdfc7197cb2443192e6b",
    "dihedral(19)": "5735338ce9ccd3b254091d8c13df2c5b501b89229c6daf6995a8973469cd5276",
    "dihedral(20)": "3979736a64d78f4f2ed085759e9d7fb02fbb3aa89623b41c0511b85d419fd98b",
    "dihedral(21)": "b63049a5be4fc62166c1d457c4fa54c55b507515038e35de20fbf0f51c5d0a6e",
    "dihedral(22)": "db11ad2b4a1e16d327bf5dc0d9ad9e344980bd33a2318ffd326d7a66552053e3",
    "dihedral(23)": "551893d5e08614dd680be2e5972e9f53839d3e0a6aa3397c262df651a06fdd89",
    "dihedral(24)": "3f7eaba72f6e53b6e504499308d40b5581262d6eb19499ce402025ed83a6c516",
    "dihedral(25)": "1be2eea771b8db142e06911bd885f4afaaeee36a5e2e717a74b26765cd01e5b5",
    "dihedral(26)": "3eaed2ba72be062529a858ce12a30cffcec9a492f93db3ae7aaacd5cf5bb4fb8",
    "dihedral(27)": "49874f6439a7149024d35736cd97dc367526ed3f302174241434d7544b87de40",
    "dihedral(28)": "c2e55df0ff0c536461fde50c261eaff4392bdceacd0b4b1ec5e513b82998a90d",
    "dihedral(29)": "f3558e1d5edeef8068be65a3338b8e7779a3f6137673783d5620aca1e343311e",
    "dihedral(30)": "983a42e893c6d75ecc8539b61107986a44623553a952227f15c3d15c99afd6e3",
    "cyclic(2)": "1fb84dda2629fc5515bd31a0d5f2a75e8ef1b824f798488d146b74b4e6f62562",
    "cyclic(3)": "2ca331f87488ba26659fa9c9b631d1d3b1fe894f73e4af833e0d062d49d286da",
    "cyclic(4)": "1c916a796497c1a1f9e32afa67dc53568d5a8dbc3e6cb3fcb7c96ceef2062bec",
    "cyclic(5)": "38da8a6493610414ff422299ed505716132ce7897df413377397684176076d78",
    "cyclic(6)": "c484697f3f5b4e8a6f92c3040d695651f2c9ef042637813fe646ef07e193ff03",
    "cyclic(7)": "5941c1772e3d9c996b176a72c94ffec389a21ca8eaff07fa52c686c3650b0f89",
    "cyclic(8)": "3dd8cb3f469e8a968dbd6df480ffb9c7677141ef100ade1225f5f3a6d1de8f76",
    "cyclic(9)": "d7ef87b10a5ce2badea518151b79d432ae1a39b7b20aeea9475e3385749202e2",
    "cyclic(10)": "6a5319bab2b172a547727822dee6394ba9740052c350bb761d9f49eba6fdb9ca",
    "cyclic(11)": "015251020e3d000e02eb510530f4df40f9de766af093e95dea97b88e5b18c657",
    "cyclic(12)": "3c7cbe7e29c86282703d96fb085a2814c143ed2dd9c82ccb85961cd78dd7fc1d",
    "cyclic(13)": "cce92282a99acc2221ef0b29e7570cf71750f4bac46acd946c55465a5e7bec79",
    "cyclic(14)": "eddef14aef3d3f647506850c3922c735e81cd4c67297b4e4ef2a145ce9c3baba",
    "cyclic(15)": "046831e09d9ef0ecdbd1ac3e08071486fcb3e87041f86b7b0eff730c6ec9b5b1",
    "cyclic(16)": "3c631cfb09ee34dc6f9a75f0695259656249ce84bb4ffdef47b22cf74321ba5d",
    "cyclic(17)": "71c359969f7f5f6e39f16cb42eda8a12923ea2af243499620e3e20f3b01a49a6",
    "cyclic(18)": "8e9152e9eaf7f89f7544d08b2b8e71849bea5ffd5572876abcf8fe77d8e8bd34",
    "cyclic(19)": "516127f25a9c7b736bd9d17f9a95067a140440c4014957ed9ad3158d4b10f98e",
    "cyclic(20)": "6dbf2e1a4f954be12f57795c5900365b6b318f3b38527135b9c4aac682ca44d1",
    "tetrahedral": "4ac80f3d1b81f8c74082e1ea07cffb0fea284b387fedbd4daa5230b57c3d1c4a",
    "octahedral": "8b9fb3be255cb51effb91319f2320815308c0cb8a535b3a0692ac835da95879c",
    "icosahedral": "26a1179e9b2ecb21da60cafda85d17cc56a7cce9b31ca515163b326582ca9cd9",
}


def _terms(row):
    return None if row is None else [(v.n, v.terms) for v in row]


def _model_record(model):
    return [
        model.name, model.order, model.is_binary,
        [(c.label, c.size, c.element_order, str(c.turn), c.image_class) for c in model.classes],
        [(r.label, r.dim) for r in model.irreps],
        [_terms(row) for row in model.table],
        _terms(model.chi_v), _terms(model.chi_u),
        model.center_class, model.inverse_class,
    ]


def _table_record(spec):
    corr = correspondence(spec)
    return [
        str(spec), _model_record(corr.group), _model_record(corr.binary_group),
        corr.node_irreps, sorted(corr.binary_nodes), corr.slots, corr.slot_labels,
        corr.node_slot, corr.slot_node,
    ]


def _digest(spec):
    blob = json.dumps(_table_record(spec), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_tables_are_pinned_term_for_term():
    assert [str(s) for s in TABLE_SPECS if _digest(s) != TABLE_DIGESTS[str(s)]] == []


def _pulled_nodes(corr):
    """(node, its binary-group irrep label, its G slot) for each non-binary node."""
    gh = corr.binary_group
    return [(p, gh.irreps[i].label, corr.node_slot[p])
            for p, i in enumerate(corr.node_irreps) if p not in corr.binary_nodes]


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_pulled_rows_are_constant_on_the_fibres_of_the_quotient(spec):
    # G = G^/{1, z}: a pulled-back row takes, at every class of G^, the value
    # of the G row at the image class, so each hand-written image_class is
    # checked at both preimages
    corr = correspondence(spec)
    g, gh = corr.group, corr.binary_group
    pairs = [(gh.table[0], g.table[0])] + [
        (gh.table[corr.node_irreps[p]], g.table[corr.slots[s]]) for p, _, s in _pulled_nodes(corr)]
    assert len(pairs) == len(g.irreps)
    for hat_row, row in pairs:
        for j, cls in enumerate(gh.classes):
            assert hat_row[j] == row[cls.image_class], (spec, j)


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_pulled_irreps_are_named_by_the_binary_labels(spec):
    # chi(2a) of Z_2k pulls back to chi(a) of Z_k, rho(2i) of D_m^ to rho(i)
    # of D_m; every other label, and every exceptional label, is kept
    corr = correspondence(spec)
    for p, label, s in _pulled_nodes(corr):
        halved = re.fullmatch(r"(chi|rho)(\d+)", label)
        if spec.kind in ("cyclic", "dihedral") and halved:
            assert int(halved[2]) % 2 == 0, (spec, p, label)
            label = f"{halved[1]}{int(halved[2]) // 2}"
        assert corr.slot_labels[s] == label, (spec, p)
