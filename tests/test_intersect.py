"""Localized intersection numbers and the character-theoretic pairing."""

from collections import Counter
from fractions import Fraction

import pytest

import qmckay.cli as cli
import qmckay.intersect as intersect
from qmckay.exact import identity, mat_inverse, mat_mul
from qmckay.grouprep import GroupSpec, correspondence
from qmckay.intersect import (
    _root_tensors,
    classical_potential,
    mckay_pairing,
    pairing_inverse_check,
    surface_integrals,
    threefold_integrals,
)
from qmckay.rootsys import parse_ade, root_system

ALL_SPECS = (
    [GroupSpec.cyclic(k) for k in range(2, 9)]
    + [GroupSpec.dihedral(m) for m in range(2, 7)]
    + [GroupSpec.tetrahedral(), GroupSpec.octahedral(), GroupSpec.icosahedral()]
)
IDS = [str(s) for s in ALL_SPECS]

D5 = GroupSpec.dihedral(3)
HALF = Fraction(1, 2)


# -- threefold side ----------------------------------------------------------


def test_threefold_zero_point_is_inverse_order():
    data = threefold_integrals(D5)
    assert data.zero_point.value == Fraction(1, 6)
    assert data.zero_point.t_power == -3


def test_threefold_two_point_frozen():
    data = threefold_integrals(D5)
    assert data.two_point == ((-HALF, -HALF), (-HALF, Fraction(-3, 2)))
    assert data.two_point_t_power == -1


def test_threefold_three_point_frozen():
    data = threefold_integrals(D5)
    # restricted roots: 2x(1,0), 4x(1,1), 8x(0,1), 1x(0,2), 2x(1,2)
    assert data.three_point[0][0][0] == 2
    assert data.three_point[0][0][1] == 2
    assert data.three_point[1][1][1] == 9
    assert data.three_point_t_power == 0


def test_threefold_basis_and_one_point():
    data = threefold_integrals(D5)
    assert data.basis == ("sgn", "rho1")
    assert all(v == 0 for v in data.one_point)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_three_point_symmetric(spec):
    t = threefold_integrals(spec).three_point
    n = len(t)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert t[i][j][k] == t[j][i][k] == t[i][k][j]


# -- pairing -----------------------------------------------------------------


def test_pairing_frozen_for_sigma3():
    matrix, t_power = mckay_pairing(D5)
    assert matrix == ((-3, 1), (1, -1))
    assert t_power == 1


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_pairing_inverts_two_point(spec):
    assert pairing_inverse_check(spec)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_pairing_symmetric_with_negative_diagonal(spec):
    matrix, _ = mckay_pairing(spec)
    n = len(matrix)
    for i in range(n):
        assert matrix[i][i] < 0
        for j in range(n):
            assert matrix[i][j] == matrix[j][i]


# -- surface side ------------------------------------------------------------


def test_surface_zero_point_is_four_over_binary_order():
    data = surface_integrals(D5)
    assert data.zero_point.value == Fraction(1, 3)
    assert data.zero_point.t_power == -2


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_surface_two_point_is_minus_inverse_cartan(spec):
    corr = correspondence(spec)
    data = surface_integrals(spec)
    cartan = [[Fraction(x) for x in row] for row in root_system(corr.ade).cartan]
    inverse = mat_inverse(cartan)
    assert data.two_point_t_power == 0
    for i, row in enumerate(data.two_point):
        for j, value in enumerate(row):
            assert value == -inverse[i][j]


def test_surface_three_point_frozen():
    data = surface_integrals(GroupSpec.cyclic(2))
    # A3 positive roots: three simple, two adjacent sums, one full sum
    assert data.three_point_t_power == 1
    assert data.three_point[0][0][0] == Fraction(3, 2)
    assert data.three_point[0][1][2] == HALF


def test_surface_basis_covers_all_nodes():
    corr = correspondence(D5)
    data = surface_integrals(D5)
    assert len(data.basis) == root_system(corr.ade).rank
    assert len(set(data.basis)) == len(data.basis)


# -- classical orbifold side ---------------------------------------------------


def test_classical_identity_sector_frozen():
    pot = classical_potential(D5)
    assert pot.delta_e_cubed.value == Fraction(1, 6)
    assert pot.delta_e_cubed.t_power == -3
    assert pot.delta_pair["s"].value == HALF
    assert pot.delta_pair["r1"].value == Fraction(1, 3)
    assert all(p.t_power == -1 for p in pot.delta_pair.values())


def test_classical_cubic_is_three_point():
    pot = classical_potential(D5)
    data = threefold_integrals(D5)
    assert pot.cubic == data.three_point
    assert pot.cubic_t_power == 0
    assert pot.basis == data.basis


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_classical_pairs_are_inverse_centralizers(spec):
    corr = correspondence(spec)
    pot = classical_potential(spec)
    for cls in corr.group.classes[1:]:
        assert pot.delta_pair[cls.label].value == Fraction(cls.size, spec.order)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_t_powers_are_fixed_by_dimension(spec):
    three = threefold_integrals(spec)
    assert (three.zero_point.t_power, three.two_point_t_power,
            three.three_point_t_power) == (-3, -1, 0)
    surface = surface_integrals(spec)
    assert (surface.zero_point.t_power, surface.two_point_t_power,
            surface.three_point_t_power) == (-2, 0, 1)
    _, pairing_power = mckay_pairing(spec)
    assert pairing_power == 1


def test_pairing_product_is_identity_matrix():
    matrix, _ = mckay_pairing(D5)
    data = threefold_integrals(D5)
    product = mat_mul(
        [[Fraction(x) for x in row] for row in matrix],
        [list(row) for row in data.two_point],
    )
    assert product == identity(2)


# -- root tensors against the dense loop ----------------------------------------


def _dense_root_tensors(vectors):
    """The original all-index loop: every (i, j, k), Fraction(x) then scaled."""
    n = len(vectors[0])
    two = [[0] * n for _ in range(n)]
    three = [[[0] * n for _ in range(n)] for _ in range(n)]
    for v in vectors:
        for i in range(n):
            if v[i] == 0:
                continue
            for j in range(n):
                if v[j] == 0:
                    continue
                two[i][j] += v[i] * v[j]
                for k in range(n):
                    three[i][j][k] += v[i] * v[j] * v[k]
    two_m = tuple(tuple(Fraction(x) for x in row) for row in two)
    three_t = tuple(
        tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in three
    )
    return two_m, three_t


def _slot_vectors(spec):
    """The positive roots restricted to the slot nodes, one vector per root:
    the classes `root_fibers` counts for the threefold tensors, plus zeros."""
    corr = correspondence(spec)
    return [
        tuple(alpha[node] for node in corr.slot_node)
        for alpha in root_system(corr.ade).positive_roots
    ]


@pytest.mark.parametrize("name", ["D26", "A31", "E8", "C:16", "D:24"])
def test_root_tensors_match_dense_reference(name):
    if ":" in name:
        spec = cli.parse_group(name)
        rs = root_system(correspondence(spec).ade)
        vectors = _slot_vectors(spec)
    else:
        rs = root_system(parse_ade(name))
        vectors = rs.positive_roots
    h = rs.coxeter_number
    two, three = _root_tensors(Counter(vectors), -h, 2)
    ref_two, ref_three = _dense_root_tensors(vectors)
    assert two == tuple(tuple(-x / h for x in row) for row in ref_two)
    assert three == tuple(
        tuple(tuple(x / 2 for x in row) for row in plane) for plane in ref_three
    )


def test_root_tensors_reject_negative_entries():
    with pytest.raises(ValueError):
        _root_tensors({(1, 0): 1, (1, -1): 2}, 1, 1)


def test_intersect_builds_threefold_data_once(capsys, monkeypatch):
    calls = {"root_tensors": 0}
    tensors = intersect._root_tensors

    def counting_tensors(*args, **kwargs):
        calls["root_tensors"] += 1
        return tensors(*args, **kwargs)

    monkeypatch.setattr(intersect, "_root_tensors", counting_tensors)
    intersect._threefold.cache_clear()
    assert cli.main(["intersect", "--group", "D:4"]) == cli.EXIT_OK
    capsys.readouterr()
    # one threefold build and one tensor build per side (threefold, surface)
    assert intersect._threefold.cache_info().misses == 1
    assert calls == {"root_tensors": 2}
