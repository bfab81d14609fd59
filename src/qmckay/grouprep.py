"""Finite rotation groups, their binary covers, and the irrep/node dictionary.

Five families of finite subgroups of the rotation group SO(3) are supported,
each with its double cover inside SU(2):

======================  ==========  ===========  ==============
family                  |G|         |G^| = 2|G|  root system
======================  ==========  ===========  ==============
cyclic(k), k >= 2       k           2k           A(2k-1)
dihedral(m), m >= 2     2m          4m           D(m+2)
tetrahedral             12          24           E6
octahedral              24          48           E7
icosahedral             60          120          E8
======================  ==========  ===========  ==============

Character tables are closed-form and parametric in the family parameter.
Each builder writes the binary group's table; the rotation group's table is
read off it, since G = G^/{1, z}: the irreps of G are those of G^ that pull
back, and G's row of each is its G^ row at one preimage of every class.
Every entry, and chi_V and chi_U, is stored exactly as a `Cyclotomic`: an
element of Z[zeta_N] with one N per group (2k for cyclic(k), lcm(2m, 4) for
dihedral(m), 12, 24 and 60 for the exceptional groups), written through
2cos(2 pi a/n) = zeta^a + zeta^-a, omega = zeta_12^4,
sqrt(2) = zeta_24^3 + zeta_24^21 and phi = 1 + zeta_60^12 + zeta_60^48.
Every exact decision is made in F_p, modulo the primes p = 1 (mod 2N) of
`qmckay.modular` with zeta_N sent to a square: equality and rationality of a
value by its images under every Galois conjugate, and the integer quantities
derived from the values (tensor multiplicities, pairings, class
multiplication constants) as dot products of ints, a matrix per call, read
back under a proven bound and checked by a witness prime.  No tolerance or
rounding is involved, and this module never imports mpmath; the one numeric
view of a value, `as_mpc`, is in `qmckay.numeric`.

Fixed conventions (part of the public contract; consumers index by label):

* Class and irrep orderings per family are exactly the orders produced by
  the builders below, documented next to each table.
* The nontrivial irreps of the binary group are matched to the nodes of the
  root system of the family ("node dictionary").  For cyclic(k), node ``p``
  carries the character ``chi(p+1)`` of Z_{2k}.  For dihedral(m), node 0
  carries the 1-dimensional ``sgn``, nodes ``1..m-1`` carry the 2-dimensional
  ``rho1..rho(m-1)`` along the chain, and the two fork nodes carry the
  remaining 1-dimensionals ``psi1``, ``psi2``.  For the exceptional families
  the dictionary is listed in the builders.  `correspondence` re-derives the
  McKay adjacency from characters and verifies it against the Cartan matrix,
  so a wrong dictionary cannot survive construction.
* An irrep of the binary group "pulls back" from G exactly when its
  character at the central involution z equals its dimension; these are the
  irreps of G, in the binary group's order.  The nodes whose irreps do not
  pull back are the binary simple roots.

Naming caveat: an odd-rank A-type label always names the root system of the
*binary* group, so ``A3`` belongs to cyclic(2), ``A5`` to cyclic(3), and so
on.  Some classifications instead label the cyclic group of order n by
``A(n-1)``; this package never uses that convention.  Even-rank A types have
no rotation group here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from types import MappingProxyType

from .errors import ConfigurationError, InternalConsistencyError, as_int
from .modular import conjugates, integer, lift
from .records import record
from .rootsys import ADEType, cartan_matrix, root_system

# The families that take no parameter: kind -> (CLI token, rank of the
# root system E6/E7/E8, order of G).
EXCEPTIONAL = {
    "tetrahedral": ("T", 6, 12),
    "octahedral": ("O", 7, 24),
    "icosahedral": ("I", 8, 60),
}


@record(order=True)
class GroupSpec:
    """One finite rotation group, named by family and parameter."""

    kind: str
    parameter: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("cyclic", "dihedral", *EXCEPTIONAL):
            raise ConfigurationError(f"unknown group family {self.kind!r}")
        as_int(self.parameter, "a group parameter")
        if self.kind in EXCEPTIONAL and self.parameter != 0:
            raise ConfigurationError(f"{self.kind} takes no parameter")
        if self.kind not in EXCEPTIONAL and self.parameter < 2:
            letter = "k" if self.kind == "cyclic" else "m"
            raise ConfigurationError(f"{self.kind} groups need parameter {letter} >= 2")

    @staticmethod
    def cyclic(k: int) -> "GroupSpec":
        return GroupSpec("cyclic", k)

    @staticmethod
    def dihedral(m: int) -> "GroupSpec":
        return GroupSpec("dihedral", m)

    @staticmethod
    def tetrahedral() -> "GroupSpec":
        return GroupSpec("tetrahedral")

    @staticmethod
    def octahedral() -> "GroupSpec":
        return GroupSpec("octahedral")

    @staticmethod
    def icosahedral() -> "GroupSpec":
        return GroupSpec("icosahedral")

    @property
    def order(self) -> int:
        if self.kind == "cyclic":
            return self.parameter
        if self.kind == "dihedral":
            return 2 * self.parameter
        return EXCEPTIONAL[self.kind][2]

    def __str__(self) -> str:
        return self.kind if self.kind in EXCEPTIONAL else f"{self.kind}({self.parameter})"


def root_system_of(spec: GroupSpec) -> ADEType:
    """ADE type of the binary cover's McKay root system."""
    if spec.kind == "cyclic":
        return ADEType("A", 2 * spec.parameter - 1)
    if spec.kind == "dihedral":
        return ADEType("D", spec.parameter + 2)
    return ADEType("E", EXCEPTIONAL[spec.kind][1])


# ---------------------------------------------------------------------------
# exact character values: elements of Z[zeta_n]
# ---------------------------------------------------------------------------


class Cyclotomic:
    """An element sum c_e * zeta_n^e of Z[zeta_n], zeta_n = exp(2*pi*i/n).

    ``terms`` holds the nonzero (e, c_e) pairs with 0 <= e < n, so products
    are cyclic convolutions; equality and rationality are decided exactly in
    F_p, on the images under every Galois conjugate (`modular.conjugates`).
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, coefficients: dict[int, int]):
        self.n = n
        acc: dict[int, int] = {}
        for e, c in coefficients.items():
            e %= n
            acc[e] = acc.get(e, 0) + c
        self.terms = tuple(sorted((e, c) for e, c in acc.items() if c))

    @staticmethod
    def integer(n: int, value: int) -> "Cyclotomic":
        return Cyclotomic(n, {0: value})

    def integer_value(self) -> int | None:
        """The value as an int when it is rational (hence an integer), else None."""
        head, *rest = conjugates(self.n, self.terms)
        return None if any(x != head for x in rest) else head

    def conjugate(self) -> "Cyclotomic":
        return Cyclotomic(self.n, {-e: c for e, c in self.terms})

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.n != self.n:
                raise ConfigurationError(f"zeta_{self.n} and zeta_{other.n} values do not mix")
            return other
        if isinstance(other, int):
            return Cyclotomic.integer(self.n, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return Cyclotomic(self.n, acc)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.n, {e: -c for e, c in self.terms})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return Cyclotomic(self.n, acc)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.terms == other.terms or not any(conjugates(self.n, (self - other).terms))

    def __hash__(self) -> int:
        # a rational value's images all equal it, so this agrees with == on ints
        return hash(conjugates(self.n, self.terms)[0])

    def __repr__(self) -> str:
        return f"Cyclotomic({self.n}, {dict(self.terms)})"


def _two_cos(e: int, n: int) -> Cyclotomic:
    """zeta_n^e + zeta_n^-e; the constructor adds up equal powers, so e = -e
    (mod n) gives coefficient 2 (key n is -0, which a dict merges with 0)."""
    e %= n
    return Cyclotomic(n, {e: 1, -e or n: 1})


def exp_turn(t: Fraction, n: int) -> Cyclotomic:
    """exp(2*pi*i*t) as zeta_n^(n*t); n*t must be an integer."""
    e = Fraction(t) * n
    if e.denominator != 1:
        raise ConfigurationError(f"exp(2 pi i {t}) is not a power of zeta_{n}")
    return Cyclotomic(n, {e.numerator: 1})


def two_cos_turn(t: Fraction, n: int) -> Cyclotomic:
    """2*cos(2*pi*t) as zeta_n^(n*t) + zeta_n^(-n*t)."""
    return exp_turn(t, n) + exp_turn(-t, n)


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@record
class ConjClass:
    """One conjugacy class.

    ``turn`` is the rotation angle of the class acting on R^3, as an exact
    fraction of a full turn normalised to [0, 1/2]; it is None for classes of
    a binary group.  ``image_class`` holds, for a binary group, the index of
    the class of the image rotation in the quotient.
    """

    label: str
    size: int
    element_order: int
    turn: Fraction | None = None
    image_class: int | None = None


@record
class Irrep:
    label: str
    dim: int


@record
class GroupModel:
    spec: GroupSpec
    name: str
    order: int
    is_binary: bool
    classes: tuple[ConjClass, ...]
    irreps: tuple[Irrep, ...]
    table: tuple[tuple[Cyclotomic, ...], ...]  # rows: irreps, columns: classes
    chi_v: tuple[Cyclotomic, ...] | None  # character of the rotation action on R^3
    chi_u: tuple[Cyclotomic, ...] | None  # character of the defining SU(2) action
    center_class: int | None  # index of the central involution z (binary only)
    inverse_class: tuple[int, ...]  # class index -> class index of the inverses

    def irrep_index(self, label: str) -> int:
        for i, r in enumerate(self.irreps):
            if r.label == label:
                return i
        raise ConfigurationError(f"{self.name} has no irrep {label!r}")

    def nontrivial_irreps(self) -> tuple[int, ...]:
        """Indices of the nontrivial irreps, sorted by (dimension, position)."""
        return tuple(
            sorted(range(1, len(self.irreps)), key=lambda i: (self.irreps[i].dim, i))
        )


@record
class McKayGraph:
    labels: tuple[str, ...]
    dims: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]


@record
class Correspondence:
    """Everything tying one group to its root system.

    ``node_irreps[p]`` is the index (into ``binary_group.irreps``) of the
    irrep sitting at node ``p``.  ``slots`` lists the nontrivial irreps of G
    in the canonical (dimension, position) order; ``slot_node[s]`` is the node
    whose irrep pulls back to slot ``s``, and ``node_slot`` is its partial
    inverse (None on binary nodes).
    """

    spec: GroupSpec
    ade: ADEType
    group: GroupModel
    binary_group: GroupModel
    node_irreps: tuple[int, ...]
    binary_nodes: frozenset[int]
    slots: tuple[int, ...]
    slot_labels: tuple[str, ...]
    node_slot: tuple[int | None, ...]
    slot_node: tuple[int, ...]


# ---------------------------------------------------------------------------
# character sums
# ---------------------------------------------------------------------------


def _ell1(value: Cyclotomic) -> int:
    """Sum of the absolute coefficients, a bound on the absolute value."""
    return sum(abs(c) for _, c in value.terms)


def _residue_map(n: int, bound):
    """One map of Z[zeta_n] to Z/(P w) for integer sums of absolute value at
    most bound, over the primes of order 2n that `crc` fills at
    (`modular.lift(2n, bound)`), zeta_n sent to z^2: P w; the image of an
    entry (sign 1) or of its conjugate (sign -1); and the matrix of row .
    column sums read back and divided by a divisor, where a sum the witness
    rejects (not rational) or the divisor does not divide raises
    InternalConsistencyError."""
    modulus, witness, z = lift(2 * n, bound)
    full = modulus * witness
    z = z * z % full
    powers = list(accumulate(range(n - 1), lambda a, _: a * z % full, initial=1))

    def image(value: Cyclotomic, sign: int = 1) -> int:
        return sum(c * powers[sign * e] for e, c in value.terms) % full

    def dots(rows, columns, divisor: int, what: str) -> tuple[tuple[int, ...], ...]:
        out = []
        for row in rows:
            sums = [integer(sum(map(mul, row, column)), modulus, witness) for column in columns]
            if any(x is None or x % divisor for x in sums):
                raise InternalConsistencyError(f"{what} is not {divisor} times an integer")
            out.append(tuple(x // divisor for x in sums))
        return tuple(out)

    return full, image, dots


def inner_products(model: GroupModel, left, right, factor=None) -> tuple[tuple[int, ...], ...]:
    """The matrix of (1/|G|) * sum over classes of size * factor * a * conj(b)
    over the rows a of ``left`` and b of ``right``, exactly (``factor`` is 1
    when omitted): integer multiplicities, or InternalConsistencyError.

    The factor is folded into the class weights; the proven bound is the sum
    over classes of size * l1(factor) * max l1(a) * max l1(b).
    """
    n = model.table[0][0].n
    sizes = [cls.size for cls in model.classes]
    factor = factor or [Cyclotomic.integer(n, 1)] * len(sizes)
    bound = sum(size * _ell1(f) * max(_ell1(a[k]) for a in left) * max(_ell1(b[k]) for b in right)
                for k, (size, f) in enumerate(zip(sizes, factor)))
    full, image, dots = _residue_map(n, bound)
    weights = [size * image(f) for size, f in zip(sizes, factor)]
    rows = [[w * image(x) % full for w, x in zip(weights, a)] for a in left]
    columns = [[image(x, -1) for x in b] for b in right]
    return dots(rows, columns, model.order, f"{model.name}: character sum")


def inner_product(model: GroupModel, row_a, row_b) -> int:
    """The 1 x 1 case of `inner_products`."""
    return inner_products(model, [row_a], [row_b])[0][0]


def class_multiplication(model: GroupModel) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Class multiplication constants: ``N[i][j][k]`` is the number of pairs
    (a, b) in C_i x C_j with ab = c for a fixed c in C_k, so that
    C_i C_j = sum_k N[i][j][k] C_k as class sums.

    By Frobenius' formula N_ijk = (|C_i||C_j|/|G|) * sum over chi of
    chi(a) chi(b) conj(chi(c)) / chi(1).  Each term is scaled by D/chi(1),
    D the lcm of the dimensions, so the sum is an integer sum in Z[zeta_N]
    that must come out |G| * D times a rational integer.  The columns are
    multiplied in Z/(P w), under the proven bound max |C|^2 * sum over chi
    of (D/chi(1)) * max l1(chi)^3.
    """
    big_d = lcm(*(r.dim for r in model.irreps))
    scales = [big_d // r.dim for r in model.irreps]
    bound = max(c.size for c in model.classes) ** 2 * sum(
        scale * max(map(_ell1, row)) ** 3 for scale, row in zip(scales, model.table))
    full, image, dots = _residue_map(model.table[0][0].n, bound)
    columns = [[image(x) for x in column] for column in zip(*model.table)]
    conjugated = [[image(x, -1) for x in column] for column in zip(*model.table)]
    out = []
    for i, ci in enumerate(model.classes):
        weighted = [ci.size * scale * x for scale, x in zip(scales, columns[i])]
        rows = [[cj.size * a * b % full for a, b in zip(weighted, columns[j])]
                for j, cj in enumerate(model.classes) if j >= i]
        # class sums are central, so N_ijk = N_jik
        out.append(tuple(out[j][i] for j in range(i)) + dots(
            rows, conjugated, model.order * big_d, f"{model.name}: class products of {ci.label}"))
    return tuple(out)


def pulls_back(model: GroupModel, irrep_label: str) -> bool:
    """True when the binary-group irrep factors through the rotation group."""
    if not model.is_binary:
        raise ConfigurationError("pulls_back applies to binary-group models")
    return _pulls_back(model, model.irrep_index(irrep_label))


def _pulls_back(model: GroupModel, i: int) -> bool:
    """`pulls_back` for the binary-group irrep at index i: chi_i(z) = +dim."""
    dim = model.irreps[i].dim
    z = model.table[i][model.center_class]
    # identical terms need no conjugate, as in Cyclotomic.__eq__
    value = dim if z.terms == ((0, dim),) else z.integer_value()
    if value not in (dim, -dim):
        raise InternalConsistencyError(
            f"character of {model.irreps[i].label} at the central involution is "
            f"neither +-dim: {z!r}"
        )
    return value == dim


def mckay_graph(model: GroupModel) -> McKayGraph:
    """Adjacency a[i][j] = multiplicity of irrep j inside U (x) irrep i."""
    if not model.is_binary or model.chi_u is None:
        raise ConfigurationError("the McKay graph is built from a binary-group model")
    return McKayGraph(
        labels=tuple(r.label for r in model.irreps),
        dims=tuple(r.dim for r in model.irreps),
        adjacency=inner_products(model, model.table, model.table, model.chi_u),
    )


# ---------------------------------------------------------------------------
# ages and the hard Lefschetz condition
# ---------------------------------------------------------------------------


def age(exponents: tuple[int, int, int], modulus: int) -> Fraction:
    """Age of a diagonalised finite-order action with the given eigenvalue
    exponents (k1, k2, k3) modulo ``modulus``.

    Requires 0 <= k_i < modulus and k1+k2+k3 = 0 mod modulus (determinant 1).
    """
    modulus = as_int(modulus, "the modulus")
    exponents = tuple(as_int(k, "an eigenvalue exponent") for k in exponents)
    if modulus < 1:
        raise ConfigurationError("modulus must be a positive integer")
    if len(exponents) != 3 or any(not (0 <= k < modulus) for k in exponents):
        raise ConfigurationError("exponents must satisfy 0 <= k < modulus")
    if sum(exponents) % modulus != 0:
        raise ConfigurationError("exponents must sum to 0 mod modulus (det = 1)")
    return Fraction(sum(exponents), modulus)


def inverse_exponents(exponents: tuple[int, int, int], modulus: int) -> tuple[int, int, int]:
    return tuple((-k) % modulus for k in exponents)  # type: ignore[return-value]


def hard_lefschetz_exponents(exponents: tuple[int, int, int], modulus: int) -> bool:
    """True when the element and its inverse have equal age."""
    return age(exponents, modulus) == age(inverse_exponents(exponents, modulus), modulus)


def class_age_exponents(cls: ConjClass) -> tuple[tuple[int, int, int], int]:
    """Eigenvalue exponents (0, p, q-p) mod q of a rotation with turn p/q."""
    if cls.turn is None:
        raise ConfigurationError("ages are defined for rotation-group classes")
    t = cls.turn
    if t == 0:
        return (0, 0, 0), 1
    return (0, t.numerator, t.denominator - t.numerator), t.denominator


def hard_lefschetz_check(model: GroupModel) -> tuple[bool, tuple[Fraction, ...]]:
    """Ages of every class, plus whether each equals the age of its inverse.

    For rotation groups every nontrivial age is 1, so the check always
    passes; it exists so the criterion is verified rather than assumed.
    """
    ages = []
    ok = True
    for cls in model.classes:
        exps, q = class_age_exponents(cls)
        ages.append(age(exps, q))
        ok = ok and hard_lefschetz_exponents(exps, q)
    return ok, tuple(ages)


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def _exact(value, n: int) -> Cyclotomic:
    """A table entry as an element of Z[zeta_n]; an int becomes a constant."""
    if isinstance(value, Cyclotomic) and value.n == n:
        return value
    if isinstance(value, int):
        return Cyclotomic.integer(n, value)
    raise InternalConsistencyError(f"entry {value!r} is not in Z[zeta_{n}]")


def _assemble(
    spec,
    name,
    order,
    is_binary,
    classes,
    irreps,
    rows,
    chi_v,
    chi_u,
    inverse,
    n,
) -> GroupModel:
    """Validate one group's data and store every character value in Z[zeta_n]."""
    classes = tuple(classes)
    irreps = tuple(irreps)
    rows = tuple(tuple(_exact(x, n) for x in r) for r in rows)
    chi_v = tuple(_exact(x, n) for x in chi_v) if chi_v is not None else None
    chi_u = tuple(_exact(x, n) for x in chi_u) if chi_u is not None else None
    if sum(c.size for c in classes) != order:
        raise InternalConsistencyError(f"{name}: class sizes do not sum to the order")
    if sum(r.dim * r.dim for r in irreps) != order:
        raise InternalConsistencyError(f"{name}: sum of dim^2 differs from the order")
    if len(classes) != len(irreps):
        raise InternalConsistencyError(f"{name}: class and irrep counts differ")
    center = None
    if is_binary:
        small = [i for i, c in enumerate(classes) if c.size == 1 and c.element_order == 2]
        if len(small) != 1:
            raise InternalConsistencyError(f"{name}: central involution not unique")
        center = small[0]
        if chi_u[center] != -2:
            raise InternalConsistencyError(f"{name}: defining character at z is not -2")
    return GroupModel(
        spec=spec,
        name=name,
        order=order,
        is_binary=is_binary,
        classes=classes,
        irreps=irreps,
        table=rows,
        chi_v=chi_v,
        chi_u=chi_u,
        center_class=center,
        inverse_class=tuple(inverse),
    )


def _quotient(gh: GroupModel, name, classes, inverse, chi_v, labels=None):
    """G = G^/{1, z} from its binary cover: the irreps of G are the irreps of
    G^ that pull back, in G^'s order, and G's row of each is its G^ row read
    at one preimage of every G class (``image_class``).  ``labels`` names them
    (G^'s labels by default); ``chi_v`` is a row, or the G^ label of the
    irrep whose row it is.  Returns G and the G^ index of each G irrep."""
    pulled = tuple(i for i in range(len(gh.irreps)) if _pulls_back(gh, i))
    preimage: dict[int, int] = {}
    for j, cls in enumerate(gh.classes):
        preimage.setdefault(cls.image_class, j)
    rows = [[gh.table[i][preimage[c]] for c in range(len(classes))] for i in pulled]
    if isinstance(chi_v, str):
        chi_v = rows[pulled.index(gh.irrep_index(chi_v))]
    labels = labels or [gh.irreps[i].label for i in pulled]
    irreps = [Irrep(label, gh.irreps[i].dim) for label, i in zip(labels, pulled)]
    return _assemble(
        gh.spec, name, gh.order // 2, False, classes, irreps, rows, chi_v, None, inverse,
        gh.table[0][0].n,
    ), pulled


def _cyclic_family(k: int):
    F = Fraction
    n = 2 * k
    # Binary group = Z_{2k}, classes g0..g(2k-1) (powers of a generator that
    # covers the rotation by one k-th turn), irreps chi0..chi(2k-1) with
    # chi_a(g^j) = zeta_2k^(a j).
    classes_h = tuple(
        ConjClass(f"g{j}", 1, n // gcd(j, n), None, j % k) for j in range(n)
    )
    irreps_h = tuple(Irrep(f"chi{a}", 1) for a in range(n))
    rows_h = [[Cyclotomic(n, {a * j: 1}) for j in range(n)] for a in range(n)]
    chi_u = tuple(_two_cos(j, n) for j in range(n))
    inv_h = tuple((n - j) % n for j in range(n))
    gh = _assemble(
        GroupSpec.cyclic(k), f"Z{n}", n, True, classes_h, irreps_h, rows_h, None, chi_u, inv_h,
        n,
    )

    # G = Z_k, classes g0..g(k-1) (powers of the rotation by one k-th turn);
    # its chi_a is the chi_2a of Z_{2k}.  Node p carries chi(p+1) of Z_{2k}.
    classes_g = tuple(
        ConjClass(f"g{j}", 1, k // gcd(j, k), F(min(j, k - j), k)) for j in range(k)
    )
    chi_v = tuple(1 + _two_cos(2 * j, n) for j in range(k))
    g, pulled = _quotient(
        gh, f"Z{k}", classes_g, tuple((k - j) % k for j in range(k)), chi_v,
        [f"chi{a}" for a in range(k)],
    )
    return g, gh, tuple(range(1, n)), pulled


def _dihedral_family(m: int):
    F = Fraction
    even = m % 2 == 0
    n = lcm(2 * m, 4)
    spec = GroupSpec.dihedral(m)

    # G = dihedral group of order 2m: rotations r^j about the main axis and m
    # half-turn flips.  Class order: e, r1..r(half or half-1), [r(half) central
    # when m is even], then the flip class(es).
    rot = range(m // 2 + 1)
    flips = ("sv", "se") if even else ("s",)
    classes_g = (
        [ConjClass("e", 1, 1, F(0))]
        + [ConjClass(f"r{j}", 1 if 2 * j == m else 2, m // gcd(j, m), F(j, m)) for j in rot[1:]]
        + [ConjClass(s, m // len(flips), 2, F(1, 2)) for s in flips]
    )

    # Binary group: order 4m with presentation x^(2m) = e, y^2 = x^m,
    # y x y^-1 = x^-1.  Classes: e, z = x^m, {x^j, x^-j} for j = 1..m-1,
    # and the two y-classes split by the parity of the x-exponent; ya and yb
    # cover the first and the last flip class of G.  Irrep order: triv, sgn,
    # psi1, psi2, rho1..rho(m-1).  Each row lists its value at e, z,
    # x1..x(m-1), then at ya and yb.
    classes_h = (
        [ConjClass("e", 1, 1, None, 0), ConjClass("z", 1, 2, None, 0)]
        + [ConjClass(f"x{j}", 2, 2 * m // gcd(j, 2 * m), None, min(j, m - j)) for j in range(1, m)]
        + [ConjClass("ya", m, 4, None, len(rot)), ConjClass("yb", m, 4, None, len(classes_g) - 1)]
    )
    x_signs = [(-1) ** j for j in (0, m, *range(1, m))]  # x-exponents of e, z, x1, ...
    a, b = (1, -1) if even else (exp_turn(F(1, 4), n), exp_turn(F(3, 4), n))  # psi1 at ya, yb
    table_h = [
        (Irrep("triv", 1), [1] * (m + 3)),
        (Irrep("sgn", 1), [1] * (m + 1) + [-1, -1]),
        (Irrep("psi1", 1), x_signs + [a, b]),
        (Irrep("psi2", 1), x_signs + [b, a]),
    ] + [
        # rho_i(z) = 2(-1)^i is written as an int: for odd i, _two_cos
        # would store the equal value 2 zeta^(N/2), whose terms differ
        (
            Irrep(f"rho{i}", 2),
            [2, 2 * (-1) ** i] + [_two_cos(i * j * n // (2 * m), n) for j in range(1, m)] + [0, 0],
        )
        for i in range(1, m)
    ]
    irreps_h, rows_h = zip(*table_h)
    inv_h = list(range(m + 3))
    if not even:
        inv_h[-2:] = [m + 2, m + 1]
    gh = _assemble(  # rho1 is the defining 2-dimensional representation
        spec, f"D{m}^", 4 * m, True, classes_h, irreps_h, rows_h, None, rows_h[4], inv_h, n,
    )

    # G's irreps, pulled back in order: triv, sgn, [psi1, psi2 when m is
    # even], and rho1, rho2, ... from the binary rho2, rho4, ...
    labels = ["triv", "sgn"] + (["psi1", "psi2"] if even else [])
    labels += [f"rho{i}" for i in range(1, (m - 1) // 2 + 1)]
    chi_v = [1 + two_cos_turn(c.turn, n) for c in classes_g]
    g, pulled = _quotient(gh, f"D{m}", classes_g, range(len(classes_g)), chi_v, labels)
    # Node dictionary for D(m+2): sgn - rho1 - ... - rho(m-1) < (psi1, psi2).
    return g, gh, tuple([1] + [3 + p for p in range(1, m)] + [2, 3]), pulled


def _tetrahedral_family():
    F = Fraction
    n = 12
    w, wb = exp_turn(F(1, 3), n), exp_turn(F(2, 3), n)
    classes_h = (
        ConjClass("e", 1, 1, None, 0),
        ConjClass("z", 1, 2, None, 0),
        ConjClass("q4", 6, 4, None, 1),
        ConjClass("h6", 4, 6, None, 2),
        ConjClass("h6b", 4, 6, None, 3),
        ConjClass("h3", 4, 3, None, 2),
        ConjClass("h3b", 4, 3, None, 3),
    )
    irreps_h = (
        Irrep("triv", 1), Irrep("om", 1), Irrep("omb", 1), Irrep("std3", 3),
        Irrep("u2", 2), Irrep("u2om", 2), Irrep("u2omb", 2),
    )
    rows_h = [
        [1] * 7,
        [1, 1, 1, w, wb, w, wb],
        [1, 1, 1, wb, w, wb, w],
        [3, 3, -1, 0, 0, 0, 0],
        [2, -2, 0, 1, 1, -1, -1],
        [2, -2, 0, w, wb, -w, -wb],
        [2, -2, 0, wb, w, -wb, -w],
    ]
    gh = _assemble(
        GroupSpec.tetrahedral(), "T^", 24, True, classes_h, irreps_h, rows_h, None,
        rows_h[4], (0, 1, 2, 4, 3, 6, 5), n,
    )
    classes_g = (
        ConjClass("e", 1, 1, F(0)),
        ConjClass("c2", 3, 2, F(1, 2)),
        ConjClass("c3", 4, 3, F(1, 3)),
        ConjClass("c3b", 4, 3, F(1, 3)),
    )
    g, pulled = _quotient(gh, "T", classes_g, (0, 1, 3, 2), "std3")
    # E6 nodes (Bourbaki, 0-based): om - u2om - std3 - u2omb - omb on the
    # chain, u2 on the branch node next to std3.
    return g, gh, (1, 4, 5, 3, 6, 2), pulled


def _octahedral_family():
    F = Fraction
    n = 24
    s2 = two_cos_turn(F(1, 8), n)  # sqrt(2) = zeta_24^3 + zeta_24^21
    classes_h = (
        ConjClass("e", 1, 1, None, 0),
        ConjClass("z", 1, 2, None, 0),
        ConjClass("q4", 6, 4, None, 2),
        ConjClass("e4", 12, 4, None, 1),
        ConjClass("h6", 8, 6, None, 3),
        ConjClass("h3", 8, 3, None, 3),
        ConjClass("o8", 6, 8, None, 4),
        ConjClass("o8b", 6, 8, None, 4),
    )
    irreps_h = (
        Irrep("triv", 1), Irrep("sgn", 1), Irrep("two", 2), Irrep("std", 3),
        Irrep("stdsgn", 3), Irrep("u2", 2), Irrep("u2s", 2), Irrep("spin4", 4),
    )
    rows_h = [
        [1] * 8,
        [1, 1, 1, -1, 1, 1, -1, -1],
        [2, 2, 2, 0, -1, -1, 0, 0],
        [3, 3, -1, 1, 0, 0, -1, -1],
        [3, 3, -1, -1, 0, 0, 1, 1],
        [2, -2, 0, 0, 1, -1, s2, -s2],
        [2, -2, 0, 0, 1, -1, -s2, s2],
        [4, -4, 0, 0, -1, 1, 0, 0],
    ]
    gh = _assemble(
        GroupSpec.octahedral(), "O^", 48, True, classes_h, irreps_h, rows_h, None,
        rows_h[5], tuple(range(8)), n,
    )
    classes_g = (
        ConjClass("e", 1, 1, F(0)),
        ConjClass("t2", 6, 2, F(1, 2)),
        ConjClass("d2", 3, 2, F(1, 2)),
        ConjClass("c3", 8, 3, F(1, 3)),
        ConjClass("c4", 6, 4, F(1, 4)),
    )
    g, pulled = _quotient(gh, "O", classes_g, (0, 1, 2, 3, 4), "stdsgn")
    # E7 nodes: u2 - stdsgn - spin4 - std - u2s - sgn on the chain, with the
    # 2-dimensional `two` on the branch node next to spin4.
    return g, gh, (5, 2, 4, 7, 3, 6, 1), pulled


def _icosahedral_family():
    F = Fraction
    n = 60
    ph = 1 + two_cos_turn(F(1, 5), n)  # golden ratio = 1 + zeta_60^12 + zeta_60^48
    classes_h = (
        ConjClass("e", 1, 1, None, 0),
        ConjClass("z", 1, 2, None, 0),
        ConjClass("q4", 30, 4, None, 1),
        ConjClass("h6", 20, 6, None, 2),
        ConjClass("h3", 20, 3, None, 2),
        ConjClass("d10", 12, 10, None, 3),
        ConjClass("d5", 12, 5, None, 4),
        ConjClass("d10b", 12, 10, None, 4),
        ConjClass("d5b", 12, 5, None, 3),
    )
    irreps_h = (
        Irrep("triv", 1), Irrep("three", 3), Irrep("threep", 3), Irrep("four", 4),
        Irrep("five", 5), Irrep("u2", 2), Irrep("u2p", 2), Irrep("spin4", 4), Irrep("six", 6),
    )
    rows_h = [
        [1] * 9,
        [3, 3, -1, 0, 0, ph, 1 - ph, 1 - ph, ph],
        [3, 3, -1, 0, 0, 1 - ph, ph, ph, 1 - ph],
        [4, 4, 0, 1, 1, -1, -1, -1, -1],
        [5, 5, 1, -1, -1, 0, 0, 0, 0],
        [2, -2, 0, 1, -1, ph, ph - 1, 1 - ph, -ph],
        [2, -2, 0, 1, -1, 1 - ph, -ph, ph, ph - 1],
        [4, -4, 0, -1, 1, 1, -1, 1, -1],
        [6, -6, 0, 0, 0, -1, 1, -1, 1],
    ]
    gh = _assemble(
        GroupSpec.icosahedral(), "I^", 120, True, classes_h, irreps_h, rows_h, None,
        rows_h[5], tuple(range(9)), n,
    )
    classes_g = (
        ConjClass("e", 1, 1, F(0)),
        ConjClass("d2", 15, 2, F(1, 2)),
        ConjClass("c3", 20, 3, F(1, 3)),
        ConjClass("c5", 12, 5, F(1, 5)),
        ConjClass("c5b", 12, 5, F(2, 5)),
    )
    g, pulled = _quotient(gh, "I", classes_g, (0, 1, 2, 3, 4), "three")
    # E8 nodes: u2p - four - six - five - spin4 - three - u2 on the chain,
    # threep on the branch node next to six.
    return g, gh, (6, 2, 3, 8, 4, 7, 1, 5), pulled


def _build_family(spec: GroupSpec):
    """G, G^, the G^ irrep at each node, and the G^ index of each G irrep."""
    if spec.kind == "cyclic":
        return _cyclic_family(spec.parameter)
    if spec.kind == "dihedral":
        return _dihedral_family(spec.parameter)
    return {"tetrahedral": _tetrahedral_family, "octahedral": _octahedral_family,
            "icosahedral": _icosahedral_family}[spec.kind]()


# ---------------------------------------------------------------------------
# correspondence construction and validation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def correspondence(spec: GroupSpec) -> Correspondence:
    """Build and cross-check the group, its binary cover and the node dictionary.

    Every check is an exact identity in Z[zeta_N], decided in F_p.
    """
    g, gh, node_irreps, pulled = _build_family(spec)
    ade = root_system_of(spec)
    rank = ade.rank
    if len(node_irreps) != rank or set(node_irreps) != set(range(1, len(gh.irreps))):
        raise InternalConsistencyError(f"{spec}: bad node dictionary")

    # The McKay adjacency, restricted along the node dictionary, must be
    # exactly 2*Id - Cartan; this pins every hand-written table.
    graph = mckay_graph(gh)
    cartan = cartan_matrix(ade)
    if [[graph.adjacency[a][b] for b in node_irreps] for a in node_irreps] != [
            [2 * (p == q) - cartan[p][q] for q in range(rank)] for p in range(rank)]:
        raise InternalConsistencyError(
            f"{spec}: McKay adjacency does not match the {ade} Cartan matrix")
    # The affine-kernel identity: adjacency * dims = 2 * dims.
    for row, dim in zip(graph.adjacency, graph.dims):
        if sum(map(mul, row, graph.dims)) != 2 * dim:
            raise InternalConsistencyError(f"{spec}: affine marks identity fails")

    # G irrep i is G^ irrep pulled[i]; the nodes whose irreps are not pulled
    # back are the binary nodes.
    slots = g.nontrivial_irreps()
    slot_of = {pulled[i]: s for s, i in enumerate(slots)}
    node_slot = tuple(slot_of.get(i) for i in node_irreps)
    slot_node = tuple(node_irreps.index(pulled[i]) for i in slots)

    return Correspondence(
        spec=spec,
        ade=ade,
        group=g,
        binary_group=gh,
        node_irreps=node_irreps,
        binary_nodes=frozenset(p for p, s in enumerate(node_slot) if s is None),
        slots=slots,
        slot_labels=tuple(g.irreps[i].label for i in slots),
        node_slot=node_slot,
        slot_node=slot_node,
    )


def build_group(spec: GroupSpec) -> GroupModel:
    """The rotation group G with classes, character table and chi_V."""
    return correspondence(spec).group


def build_binary_group(spec: GroupSpec) -> GroupModel:
    """The binary cover with classes, character table, chi_U and z."""
    return correspondence(spec).binary_group


def binary_simple_roots(spec: GroupSpec) -> tuple[int, ...]:
    """Nodes whose irreps do not pull back from the rotation group."""
    return tuple(sorted(correspondence(spec).binary_nodes))


@lru_cache(maxsize=None)
def root_fibers(spec: GroupSpec) -> MappingProxyType:
    """Positive roots over each nonzero curve class beta, a root's coefficients
    at the slot nodes: the one scan of the roots per group, read by the BPS
    table, the threefold integrals and the orbifold potential."""
    corr = correspondence(spec)
    fibers: dict[tuple[int, ...], int] = {}
    for alpha in root_system(corr.ade).positive_roots:
        beta = tuple(alpha[node] for node in corr.slot_node)
        if any(beta):
            fibers[beta] = fibers.get(beta, 0) + 1
    return MappingProxyType(fibers)
