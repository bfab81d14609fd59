from fractions import Fraction

import pytest

from qmckay.errors import ConfigurationError
from qmckay.exact import mat_inverse
from qmckay.rootsys import ADEType, cartan_matrix, parse_ade, positive_roots, root_system

# D5 positive roots in node order (chain 0,1,2 with forks 3,4 on node 2),
# written down by hand from the height-by-height closure
D5_ROOTS = {
    (0, 0, 0, 1, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1), (1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0),
    (0, 0, 1, 0, 1), (1, 1, 1, 0, 0), (0, 1, 1, 1, 0), (0, 1, 1, 0, 1),
    (0, 0, 1, 1, 1), (1, 1, 1, 1, 0), (1, 1, 1, 0, 1), (0, 1, 1, 1, 1),
    (0, 1, 2, 1, 1), (1, 1, 1, 1, 1), (1, 1, 2, 1, 1), (1, 2, 2, 1, 1),
}

COXETER = {
    ("A", 1): 2, ("A", 2): 3, ("A", 5): 6, ("A", 8): 9,
    ("D", 4): 6, ("D", 5): 8, ("D", 8): 14,
    ("E", 6): 12, ("E", 7): 18, ("E", 8): 30,
}

ALL_TYPES = (
    [ADEType("A", n) for n in range(1, 9)]
    + [ADEType("D", n) for n in range(4, 9)]
    + [ADEType("E", n) for n in (6, 7, 8)]
)


def test_parse_ade():
    assert parse_ade("D5") == ADEType("D", 5)
    assert parse_ade("A1") == ADEType("A", 1)
    assert parse_ade("E8") == ADEType("E", 8)


@pytest.mark.parametrize("bad", ["A0", "D3", "D2", "E5", "E9", "F4", "A"])
def test_invalid_types_rejected(bad):
    with pytest.raises(ConfigurationError):
        parse_ade(bad)


@pytest.mark.parametrize("ade", ALL_TYPES)
def test_cartan_matrix_shape(ade):
    c = cartan_matrix(ade)
    n = ade.rank
    assert len(c) == n and all(len(row) == n for row in c)
    for i in range(n):
        assert c[i][i] == 2
        for j in range(n):
            if i != j:
                assert c[i][j] in (0, -1)
                assert c[i][j] == c[j][i]
    # connectedness: every node reachable from node 0
    seen, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if i != j and c[i][j] == -1 and j not in seen:
                seen.add(j)
                frontier.append(j)
    assert seen == set(range(n))


@pytest.mark.parametrize("key,h", sorted(COXETER.items()))
def test_coxeter_numbers(key, h):
    rs = root_system(ADEType(*key))
    assert rs.coxeter_number == h
    assert 2 * len(rs.positive_roots) == rs.rank * h


def test_d5_roots_frozen():
    rs = root_system(ADEType("D", 5))
    assert set(rs.positive_roots) == D5_ROOTS
    assert len(rs.positive_roots) == 20
    assert rs.highest_root == (1, 2, 2, 1, 1)


def test_root_order_is_by_height_then_lex():
    rs = root_system(ADEType("D", 5))
    keys = [(sum(a), a) for a in rs.positive_roots]
    assert keys == sorted(keys)


def _weyl_orbit_roots(ade):
    """All roots generated from the simples by simple reflections.

    In simple-root coordinates the reflection s_i changes only coordinate i:
    alpha_i -> alpha_i - sum_j C_ij alpha_j.
    """
    c = cartan_matrix(ade)
    n = ade.rank
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        alpha = frontier.pop()
        for i in range(n):
            pairing = sum(c[i][j] * alpha[j] for j in range(n))
            image = alpha[:i] + (alpha[i] - pairing,) + alpha[i + 1:]
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return {a for a in seen if all(x >= 0 for x in a)}


@pytest.mark.parametrize(
    "ade",
    [t for t in ALL_TYPES if t.rank <= 6],
    ids=lambda t: f"{t.family}{t.rank}",
)
def test_positive_roots_match_weyl_orbit(ade):
    rs = root_system(ade)
    assert set(rs.positive_roots) == _weyl_orbit_roots(ade)


def _dense_cartan_roots(ade):
    """The closure with the full product C alpha at every step, sorted by
    (height, lex): the reference for the sparse closure of positive_roots."""
    cartan = cartan_matrix(ade)
    n = ade.rank
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found = set(simples)
    frontier = list(simples)
    while frontier:
        grown = []
        for alpha in frontier:
            pairing = [sum(cartan[i][j] * alpha[j] for j in range(n)) for i in range(n)]
            for i in range(n):
                if pairing[i] == -1:
                    beta = tuple(v + int(j == i) for j, v in enumerate(alpha))
                    if beta not in found:
                        found.add(beta)
                        grown.append(beta)
        frontier = grown
    return tuple(sorted(found, key=lambda v: (sum(v), v)))


@pytest.mark.parametrize(
    "ade",
    ALL_TYPES + [ADEType("A", 39), ADEType("D", 26)],
    ids=lambda t: f"{t.family}{t.rank}",
)
def test_positive_roots_match_dense_cartan_closure(ade):
    assert positive_roots(ade) == _dense_cartan_roots(ade)


@pytest.mark.parametrize("ade", ALL_TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_root_sum_identity(ade):
    rs = root_system(ade)
    n = rs.rank
    total = [[0] * n for _ in range(n)]
    for alpha in rs.positive_roots:
        for i in range(n):
            for j in range(n):
                total[i][j] += alpha[i] * alpha[j]
    expected = [
        [rs.coxeter_number * x for x in row] for row in mat_inverse(rs.cartan)
    ]
    assert [[Fraction(x) for x in row] for row in total] == expected


def test_highest_root_dominates():
    for ade in ALL_TYPES:
        rs = root_system(ade)
        theta = rs.highest_root
        for alpha in rs.positive_roots:
            assert all(t >= a for t, a in zip(theta, alpha))
