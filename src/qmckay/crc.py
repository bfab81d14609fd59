"""The orbifold genus-zero potential and its match with the resolution.

The quotient side of the correspondence packages its genus-zero data into a
potential in one variable per nontrivial conjugacy class,

    F(x) = 1/2 * sum over positive roots of h(pi + sum_rho alpha^rho X_rho),

where X_rho is affine-linear in x with constant 2*pi*dim(rho)/|G| and
coefficients L_rho(g) = (size(g)/|G|) * sqrt(3 - chi_V(g)) * chi_rho(g),
and h is determined (up to irrelevant low-order terms) by
h'''(s) = 1/2 * tan(-s/2).  Every Taylor coefficient of F is a rational
number, and `orbifold_potential` computes it exactly, as do the resolution
route and `crc_consistency`.  This module is that exact layer.  Every
x = 0 decimal view is one exact value converted once:
`PotentialSeries.coefficient(s)` here, and `taylor_third_partial`,
`b_series` (2(j+1)(-1)^j times the coefficient of x_s^2 x_r1^(j+1)) and
`resolution_third_partials` in `qmckay.numeric`, which also holds the views
that work at decimal precision (`third_partial` at real x, `linear_forms`,
`change_of_variables`) and `as_mpc`, the one numeric view of a character
value, so `grouprep` is free of mpmath.  Every public name of `numeric` is
read from here too, on first access (PEP 562), so a request that forms no
mpf never compiles them.  mpmath is imported by the functions that form an
mpf, not by this module: `orbifold_potential` and `crc_consistency` form
none, and `PotentialSeries.jsonable` prints its decimals from the exact
values in integer arithmetic (`digits.nstr`).

Structure of the computation:

* Every derivative of h is a polynomial in T = tan of the base point with
  exact rational coefficients, built once by the recursion h''' = T/2,
  h^(n+1) = -(1 + T^2)/2 * d/dT h^(n), so a degree-N Taylor expansion
  costs one T per curve class.
* Only monomials allowed by the selection rule of the orbifold cup product
  are formed: the coefficient of x_1^e_1 ... x_n^e_n is a degree-0
  invariant <x_C1 ... x_Cn>, which can be nonzero only when the identity
  lies in the class product C_1^e_1 ... C_n^e_n.  The class products come
  from the exact class multiplication constants N_ijk of
  `grouprep.class_multiplication` (integer sums in Z[zeta_N], formed
  modulo the primes of `qmckay.modular` and lifted like the coefficients
  below, built once per group on first use); a pass over the classes
  carries the bitmask of classes each prefix's product can reach, starting
  from {identity}, drops a prefix as soon as no completion can bring it
  back to the identity, and keeps a vector only if its mask holds the
  identity.
* Each coefficient is a sum over roots of (h^(n)(s0)/2) * prod_i l_i^e_i/e_i!.
  A root enters only through its curve class, so the sum runs over the
  classes of `grouprep.root_fibers`, each weighted by its fiber, and each
  class carries one table: the row l_i^e/e! per class, built by a running
  product, and h^(n)(s0)/2 per degree.  The allowed vectors are laid out
  once per call as a prefix tree, one class per level, holding only
  prefixes of allowed vectors; every curve class fills the tree level by
  level, so each prefix product is formed once and the inner loop only
  multiplies and adds.  A coefficient is the same number it would be in the
  tree of every vector; the vectors left out have coefficient exactly 0.
* The forms are defined once, exactly, in `_exact_forms`: (|G|/|C|) L_s(C)
  = 2 sin(pi t) chi_s(C) in Z[zeta_M], M = 2N for N, the order of the
  tables, even and a multiple of |G| (so 2q | M for each class turn p/q),
  with sqrt(3 - chi_V) = 2 sin(pi t) = -i (zeta_2q^p - zeta_2q^-p) once
  chi_V = 1 + 2 cos(2 pi t) is checked exactly;
  `linear_forms` is their mpc view.  The tree is filled once, modulo a
  product of primes = 1 (mod M), zeta_M sent to an element of order M
  modulo each, and so is each class's T = cot(pi d/|G|) = i (w + 1)/(w - 1),
  w = zeta_|G|^d.  A coefficient times its proven denominator is an integer
  under a proven bound, its symmetric residue modulo the product of the
  lifting primes; one further prime, the witness, must agree with it, which
  also checks that the coefficient is rational.  Zero is decided exactly.
* Roots over the zero class have constant arguments and no class in
  `root_fibers`, so they add to no coefficient; for every other class the
  base point is a rational angle whose distance from the tan pole is
  decided by an exact integer test.  The mpf forms of the closed formulas
  (`qmckay.numeric`) are built once per (group, precision) and curve
  class, and cached.

The resolution route (`resolution_third_partials`) evaluates the same third
partials at x = 0 from the other side of the correspondence: the classical
cubic intersection form plus one geometric series per root, glued by the
change of variables y = i*L*x, q_rho = exp(2*pi*i*dim(rho)/|G|).  The
cubic is a `Fraction` tensor and L and w/(1-w) are cyclotomic, so it runs
in the same embedding and one-fill lift.  `crc_consistency` compares the two
routes as `Fraction`s; by the identity (1+w)/(1-w) = i*cot(theta/2) both
reduce to the same per-root sum once the cubic is written as (1/4) * sum
over roots of r (x) r (x) r, so their agreement checks that identity and
the definition of the cubic rather than giving independent evidence.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, lru_cache, reduce
from itertools import accumulate, combinations_with_replacement
from math import factorial, lcm, prod
from operator import mul, or_

from . import DEFAULT_DPS, _GUARD
from .errors import ConfigurationError, InternalConsistencyError, PoleError, as_int, dense
from .grouprep import (
    Cyclotomic, GroupSpec, class_multiplication, correspondence, exp_turn, root_fibers,
    two_cos_turn,
)
from .modular import integer, lift
from .records import record


def _precision(dps) -> int:
    """``dps``, the decimal digits of an mpf view, as an int of at least 1."""
    dps = as_int(dps, "the precision")
    if dps < 1:
        raise ConfigurationError(f"the precision must be at least 1 digit, got {dps}")
    return dps


# ---------------------------------------------------------------------------
# the derivatives of h
# ---------------------------------------------------------------------------


# h^(n) at index n - 3, grown by a loop (no deep stack) and rebound whole (thread-safe)
_h_tower = ((Fraction(0), Fraction(1, 2)),)


def _h_poly(n: int) -> tuple[Fraction, ...]:
    """h^(n) as a polynomial in T = tan(-s/2), for n >= 3.

    h''' = T/2 and dT/ds = -(1 + T^2)/2, so h^(n+1) = -(1 + T^2)/2 * d/dT h^(n).
    """
    global _h_tower
    if as_int(n, "the derivative order") < 3:
        raise ConfigurationError("derivatives of order below three are not defined")
    tower, pad = _h_tower, [Fraction(0)] * 2
    while len(tower) <= n - 3:
        d = [c * k for k, c in enumerate(tower[-1])][1:]  # d/dT
        tower += (tuple(-(a + b) / 2 for a, b in zip(d + pad, pad + d)),)
    _h_tower = tower
    return tower[n - 3]


# ---------------------------------------------------------------------------
# the forms
# ---------------------------------------------------------------------------


def _check_chi_v(g) -> None:
    """chi_V = 1 + 2 cos(2 pi t) on every class of turn t, exactly, so that
    sqrt(3 - chi_V) = 2 sin(pi t), real and >= 0 for t in [0, 1/2]."""
    for c, chi in zip(g.classes, g.chi_v):
        if chi != 1 + two_cos_turn(c.turn, chi.n):
            raise InternalConsistencyError(f"chi_V on {c.label} is not 1 + 2 cos(2 pi turn)")


@lru_cache(maxsize=None)
def _exact_forms(spec: GroupSpec) -> tuple[int, tuple[tuple[Cyclotomic, ...], ...]]:
    """m = 2N, N the tables' order: N is even and a multiple of |G|, so i,
    zeta_|G| and zeta_2q (q | |G|) are powers of zeta_m, and `grouprep`
    sums at order m too.  Per slot s and nontrivial class C of turn t the
    exact (|G|/|C|) L_s(C) = 2 sin(pi t) chi_s(C) in Z[zeta_m], 2 sin(pi t)
    = -i (zeta_2q^p - zeta_2q^-p) = sqrt(3 - chi_V(C)) once `_check_chi_v`
    holds.  `numeric.linear_forms` reads the entries as mpc, `_embedding` modulo p."""
    corr = correspondence(spec)
    g = corr.group
    _check_chi_v(g)
    m = 2 * g.chi_v[0].n
    sines = [exp_turn(Fraction(3, 4), m) * (exp_turn(c.turn / 2, m) - exp_turn(-c.turn / 2, m))
             for c in g.classes[1:]]  # -i (zeta_2q^p - zeta_2q^-p)
    return m, tuple(
        tuple(sine * Cyclotomic(m, {2 * e: k for e, k in chi.terms})  # zeta_N = zeta_m^2
              for sine, chi in zip(sines, g.table[s][1:]))
        for s in corr.slots
    )


def _classes(spec: GroupSpec) -> list[tuple[int, int, tuple[int, ...]]]:
    """(fiber, dim_sum, beta) per class beta of `root_fibers`, whose roots share one argument."""
    corr = correspondence(spec)
    order = corr.group.order
    dims = [corr.group.irreps[s].dim for s in corr.slots]
    out = []
    for beta, fiber in root_fibers(spec).items():
        dim_sum = sum(b * d for b, d in zip(beta, dims))
        if dim_sum % order == 0:
            raise PoleError(
                f"class {beta} of {spec} sits on a tan pole "
                f"(dimension sum {dim_sum} divisible by {order})"
            )
        out.append((fiber, dim_sum, beta))
    return out


# ---------------------------------------------------------------------------
# the potential
# ---------------------------------------------------------------------------


@record
class PotentialSeries:
    """Taylor coefficients of the quotient-side potential, degrees 3..N.

    Keys are the exponent tuples over ``class_labels`` of the nonzero
    coefficients: exact in ``rationals``, mpf in ``coefficients``.
    """

    spec: GroupSpec
    class_labels: tuple[str, ...]
    degree: int
    dps: int
    rationals: dict[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        _precision(self.dps)

    @cached_property
    def coefficients(self) -> dict[tuple[int, ...], mp.mpf]:
        """``rationals`` as mpf at dps plus guard digits, formed on first access."""
        from .numeric import _as_mpf

        return dict(zip(self.rationals, _as_mpf(self.rationals.values(), self.dps)))

    def coefficient(self, exponents: dict[str, int]) -> mp.mpf:
        """One coefficient of ``rationals`` as mpf at dps plus guard digits."""
        key = tuple(as_int(e, "an exponent")
                    for e in dense(exponents, self.class_labels, "conjugacy classes"))
        from .numeric import _as_mpf

        return _as_mpf([self.rationals.get(key, 0)], self.dps)[0]

    def jsonable(self) -> list:
        """Records in (degree, exponents) order.  Each coefficient prints to
        min(30, dps) significant digits: the guard digits beyond the
        requested precision are rounding noise, not data.  The digits are
        those ``mp.nstr`` prints for ``coefficients``, formed from
        ``rationals`` by `digits.nstr` without loading mpmath."""
        from .digits import nstr  # here, so only a request that prints one compiles it

        places = min(30, self.dps)
        return [{
            "degree": sum(key),
            "exponents": {lbl: e for lbl, e in zip(self.class_labels, key) if e},
            "coefficient": nstr(c.numerator, c.denominator, self.dps + _GUARD, places),
            "rational_guess": str(c),
        } for key, c in sorted(self.rationals.items(), key=lambda kc: (sum(kc[0]), kc[0]))]


@lru_cache(maxsize=None)
def _class_products(spec: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """products[c][k]: the classes of C_k C_c as a bitmask over class indices."""
    constants = class_multiplication(correspondence(spec).group)
    return tuple(
        tuple(sum(1 << m for m, count in enumerate(constants[k][c]) if count)
              for k in range(len(constants)))
        for c in range(len(constants))
    )


def _monomial_tree(spec: GroupSpec, degree: int):
    """The exponent vectors the selection rule allows, as a prefix tree.

    A vector (e_1, ..., e_n) over the nontrivial classes is allowed when it
    has total degree 3..degree and the identity lies in the class product
    C_1^e_1 ... C_n^e_n; the reachable classes are carried as a bitmask
    that starts at {identity}.  A prefix over C_1..C_c is kept only while a
    completion can still close it: its mask must meet the inverses of the
    classes that products over C_(c+1)..C_n of the degree left can reach.
    Level i holds one (parent index, exponent) pair per prefix over the
    first i+1 classes of an allowed vector, for every class but the last;
    the parent is that prefix's own prefix in level i-1.  The leaves are
    returned as terms (parent index, degree of the parent, last exponent,
    vector), ordered by degree then vector.
    """
    products = _class_products(spec)
    inverse = correspondence(spec).group.inverse_class
    n = len(products)

    @cache
    def times(mask: int, c: int) -> int:
        return reduce(or_, (row for k, row in enumerate(products[c]) if mask >> k & 1), 0)

    # closing[c][r]: the inverses of the classes reachable by products over
    # C_c..C_n of total degree at most r; past the last class only the empty
    # product, {identity}, is left
    closing = [None] * n + [[1] * (degree + 1)]
    reach = closing[n]
    for c in range(n - 1, 0, -1):
        reach = list(accumulate(reach[1:], lambda below, here: here | times(below, c),
                                initial=1))
        closing[c] = [sum(1 << inverse[k] for k in range(n) if m >> k & 1) for m in reach]
    vectors = [((), 0, 1)]
    for c in range(1, n):
        grown = []
        for key, used, mask in vectors:
            for e in range(degree - used + 1):
                if mask & closing[c + 1][degree - used - e]:
                    grown.append((key + (e,), used + e, mask))
                mask = times(mask, c)
        vectors = grown
    allowed = [key for key, used, _ in vectors if used >= 3]
    levels = []
    index = {(): 0}
    for i in range(1, n - 1):
        prefixes = dict.fromkeys(key[:i] for key in allowed)
        levels.append([(index[p[:-1]], p[-1]) for p in prefixes])
        index = {p: j for j, p in enumerate(prefixes)}
    terms = [(index[key[:-1]], sum(key[:-1]), key[-1], key) for key in allowed]
    terms.sort(key=lambda term: (term[1] + term[2], term[3]))
    return levels, terms


@lru_cache(maxsize=None)
def _embedding(spec: GroupSpec, p: int, z: int):
    """The x = 0 data modulo p with zeta_m sent to z (`_exact_forms`): i; the
    forms L_s(C) per class C, over slots, the exact entries times |C|/|G|;
    and (fiber, w = exp(2 pi i dim_sum/|G|), l) per curve class beta of
    `_classes`, l(C) = sum_s beta_s L_s(C)."""
    g = correspondence(spec).group
    m, exact = _exact_forms(spec)
    powers = list(accumulate(range(m - 1), lambda a, _: a * z % p, initial=1))  # z^0..z^(m-1)
    scales = [c.size * pow(g.order, -1, p) for c in g.classes[1:]]
    columns = [[scale * sum(k * powers[e] for e, k in entry.terms) % p for entry in column]
               for scale, column in zip(scales, zip(*exact))]
    roots = [
        (fiber, powers[dim_sum * m // g.order],
         [sum(b * f for b, f in zip(beta, column) if b) % p for column in columns])
        for fiber, dim_sum, beta in _classes(spec)
    ]
    return powers[m // 4], columns, roots


def _residues(spec: GroupSpec, levels, terms, degree: int, p: int, z: int) -> list[int]:
    """Every term's coefficient modulo p, with zeta_m sent to z (`_embedding`)."""
    i, _, roots = _embedding(spec, p, z)
    half_h = [[c.numerator * pow(2 * c.denominator, -1, p) for c in _h_poly(n)]
              for n in range(3, degree + 1)]
    inverse = [pow(e, -1, p) for e in range(1, degree + 1)]
    acc = [0] * len(terms)
    for mult, w, l in roots:
        t = i * (w + 1) * pow(w - 1, -1, p) % p  # cot(pi * dim_sum / |G|)
        hs = [None] * 3 + [mult * reduce(lambda a, c: (a * t + c) % p, reversed(h), 0) % p
                           for h in half_h]
        # l^e/e! per class
        rows = [list(accumulate(inverse, lambda x, v: x * lc * v % p, initial=1)) for lc in l]
        # e = 0 entries carry the prefix over without a multiply
        prods = [1]
        for level, row in zip(levels, rows):
            prods = [prods[q] * row[e] % p if e else prods[q] for q, e in level]
        # the last class's row, weighted by h^(n)/2 at each total degree n
        last = rows[-1]
        weighted = [
            [last[e] * hs[u + e] % p if u + e >= 3 else None for e in range(degree - u + 1)]
            for u in range(degree + 1)
        ]
        acc = [a + prods[q] * weighted[u][e] for a, (q, u, e, _) in zip(acc, terms)]
    return [a % p for a in acc]


def _lift(spec: GroupSpec, residues, dens: list[int], bound, keys) -> list[Fraction]:
    """The values c, one per key, with c d an integer of absolute value at
    most bound for the key's denominator d, read back (`modular.lift`)
    from one fill residues(P w, z)."""
    modulus, witness, z = lift(_exact_forms(spec)[0], bound)
    found = residues(modulus * witness, z)
    lifted = [integer(r * d, modulus, witness) for r, d in zip(found, dens)]
    if None in lifted:
        raise InternalConsistencyError(
            f"value at {keys[lifted.index(None)]} is not rational under the proven "
            f"denominator and bound: witness prime {witness} disagrees")
    return [Fraction(x, d) for x, d in zip(lifted, dens)]


def _exact_coefficients(spec: GroupSpec, levels, terms, degree: int) -> list[Fraction]:
    """Every term's coefficient c, lifted from its residues mod primes.

    c D is an integer for D = 2^(n-1) |G|^(2n-2) prod e_i! (|G| l_i and |G| T
    are algebraic integers), and |T| < |G|/pi, |l_i| < 2|C_i| bound |c D| by
    R H_n(|G|/3) 2^(n-1) |G|^(2n-2) prod (2|C_i|)^e_i, with R roots and H_n
    the polynomial of h^(n) with absolute coefficients.
    """
    g = correspondence(spec).group
    scale = {n: 2 ** (n - 1) * g.order ** (2 * n - 2) for n in range(3, degree + 1)}
    top = {n: sum(abs(c) * Fraction(g.order, 3) ** k for k, c in enumerate(_h_poly(n)))
           * sum(root_fibers(spec).values()) for n in scale}
    sizes = [2 * c.size for c in g.classes[1:]]
    dens, bound = [], 0
    for _, u, e, key in terms:
        dens.append(scale[u + e] * prod(map(factorial, key)))
        bound = max(bound, scale[u + e] * top[u + e] * prod(map(pow, sizes, key)))
    return _lift(spec, lambda p, z: _residues(spec, levels, terms, degree, p, z),
                 dens, bound, [term[3] for term in terms])


def orbifold_potential(spec: GroupSpec, degree: int, dps: int = DEFAULT_DPS) -> PotentialSeries:
    """Taylor coefficients of F(x) up to the given total degree (>= 3), exact."""
    _precision(dps)  # before the lift, which a bad dps would only waste
    degree = as_int(degree, "the degree")
    if degree < 3:
        raise ConfigurationError("the potential starts at degree three")
    levels, terms = _monomial_tree(spec, degree)
    values = _exact_coefficients(spec, levels, terms, degree)
    exact = {term[3]: c for term, c in zip(terms, values) if c}
    labels = tuple(c.label for c in correspondence(spec).group.classes[1:])
    return PotentialSeries(spec, labels, degree, dps, exact)


# ---------------------------------------------------------------------------
# the resolution route
# ---------------------------------------------------------------------------


def _resolution_residues(spec: GroupSpec, cubic, den: int, p: int, z: int) -> list[int]:
    """Every third partial of `resolution_third_partials` modulo p, zeta_m
    sent to z, over the triples of combinations_with_replacement order;
    ``cubic`` is the classical cubic times ``den``, as integers."""
    i, cols, roots = _embedding(spec, p, z)  # cols: L_s(C) per class, over slots
    i3 = -i % p
    scale = i3 * pow(den, -1, p) % p
    # by_last[a][k][b] = sum_c cubic[a][b][c] L_c(k)
    by_last = [[[sum(map(mul, row, col)) % p for row in plane] for col in cols]
               for plane in cubic]
    # l(C) per class over the curve classes, each weighted fiber (i^3/2) w/(1-w)
    lroots = list(zip(*(l for _, _, l in roots)))
    weights = [mult * i3 * w * pow(2 - 2 * w, -1, p) % p for mult, w, _ in roots]
    # the (i, j, k) partial is outer[i] . inner[j, k]: (i^3/den) times the
    # cubic contracted over its last two indices, then the roots
    inner = {
        (j, k): [sum(map(mul, cols[j], plane[k])) * scale % p for plane in by_last]
        + [wt * lj * lk % p for wt, lj, lk in zip(weights, lroots[j], lroots[k])]
        for j, k in combinations_with_replacement(range(len(cols)), 2)
    }
    outer = [[*col, *lcol] for col, lcol in zip(cols, lroots)]
    return [sum(map(mul, outer[i], inner[j, k])) % p
            for i, j, k in combinations_with_replacement(range(len(cols)), 3)]


def _resolution_rationals(spec: GroupSpec) -> dict[tuple[int, int, int], Fraction]:
    """The third partials of `resolution_third_partials`, exact.

    For d the lcm of 2 and the cubic's denominators, D = d |G|^4 times each
    partial is an algebraic integer: |G| L and |G| l are, and so is
    |G|/(1-w), since 1 - w divides the order of w, which divides |G|.  With
    |L_s(C)| < 2|C|, |l(C)| < 2|C| (dim_sum < |G|) and |w/(1-w)| =
    1/(2 sin(pi dim_sum/|G|)) <= |G|/4, each partial is at most
    (sum |cubic_abc| + R |G|/8) (2 max|C|)^3 in absolute value, R roots.
    """
    from .intersect import classical_potential  # here, so a crc request never compiles it

    g = correspondence(spec).group
    cubic = classical_potential(spec).cubic
    den = lcm(2, *(c.denominator for plane in cubic for row in plane for c in row))
    ints = [[[c.numerator * (den // c.denominator) for c in row] for row in plane]
            for plane in cubic]
    weight = sum(abs(x) for plane in ints for row in plane for x in row)  # den sum |cubic|
    big_d = den * g.order ** 4
    bound = g.order ** 4 * (2 * max(c.size for c in g.classes)) ** 3 * (
        weight + Fraction(den * sum(root_fibers(spec).values()) * g.order, 8))
    triples = list(combinations_with_replacement(range(len(g.classes) - 1), 3))
    return dict(zip(triples, _lift(
        spec, lambda p, z: _resolution_residues(spec, ints, den, p, z),
        [big_d] * len(triples), bound, triples)))


def crc_consistency(spec: GroupSpec, dps: int = DEFAULT_DPS) -> Fraction:
    """Largest absolute difference, over all index triples, between the
    resolution-route third partials and the quotient side's at x = 0: the
    degree-3 coefficients of `orbifold_potential` times prod e_i!, that is
    (1/4) * sum over roots of l_k l_k' l_k'' * cot(theta0/2), and 0 on the
    triples the selection rule excludes.  Both sides are `Fraction`s, and so
    is the residual returned: exactly 0 when they agree, at any valid
    ``dps``.  By the identity (1+w)/(1-w) = i*cot(theta/2) they agree as
    soon as the cubic is (1/4) * sum over roots of r (x) r (x) r, so 0
    confirms that identity and the cubic's definition, not the
    correspondence independently.  A
    resolution side that is not rational fails its witness prime, which
    raises InternalConsistencyError."""
    _precision(dps)
    orbifold = orbifold_potential(spec, 3).rationals
    n = len(correspondence(spec).group.classes) - 1
    worst = Fraction(0)
    for triple, value in _resolution_rationals(spec).items():
        key = tuple(map(triple.count, range(n)))
        worst = max(worst, abs(value - orbifold.get(key, 0) * prod(map(factorial, key))))
    return worst


def __getattr__(name: str):
    """A public name of `qmckay.numeric`, the mpf views, read from there."""
    from . import numeric

    if name in numeric.__all__:
        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
