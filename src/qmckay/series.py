"""Exact truncated multivariate series over the rationals.

Everything downstream (partition functions, curve-counting generating
series, multiple-cover sums) lives in the ring
``Q[[q1..qr, Q]][lam^-2, lam]]`` truncated by total q-degree, Q-degree and
lam-order.  Coefficients are `fractions.Fraction` at the public API, so
equality of two pipelines is exact, never a tolerance.

Variable-name convention (internal contract): variables named ``Q`` and
``lam`` play the special roles; every other variable counts toward the
total q-degree.  ``lam`` may carry exponents down to -2 (genus-zero free
energies need a double pole); anything below -2 signals an algebra misuse
and raises instead of truncating silently.

Storage is packed (Monagan and Pearce, Polynomial division using dynamic
arrays, heaps, and packed exponent vectors, CASC 2007): an exponent vector
is one int of bit fields, so adding keys adds vectors, and coefficients are
int numerators over one reduced denominator per series.  The layout
belongs to the ring, so no series is ever repacked: a q-variable's or Q's
field is as wide as its cap or, uncapped, 64 bits, and a q-degree or Q
exponent past 2^64 - 1 in an uncapped direction is refused, so no field
carries into the next; lam sits on top, unbounded, so it may go negative.

Arithmetic is graded.  Every key has a grade triple (q-degree, Q-degree,
lam-order), and products work on buckets of terms that share a triple: a
pair of buckets whose grades add past a cap is skipped whole, before any of
its terms is formed.  Sums and rescalings are products with the unit.
`exp` and `log` use the Euler-operator recurrence of Brent and Kung (Fast
algorithms for manipulating formal power series, J. ACM 25, 1978).  Let D
multiply a monomial by its total capped grade (the q-degree, the Q-degree
and the lam-order, each counted only when its cap is set).  For
f = exp(g), D f = (D g) f, so the grade-w parts satisfy

    w * f_w = sum_{k=1..w} k * g_k * f_(w-k),

which gives f from g (exp) or g from f (log) one grade at a time, forming
only grade-w products, each over a denominator of its own, and then sums
the grades like any other sum.  Grades above the sum of the caps are zero.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .errors import ConfigurationError, InternalConsistencyError, as_int, dense
from .records import record

LAMBDA_FLOOR = -2
_TOP = 2**64 - 1  # the largest q-degree or Q exponent an uncapped direction holds


@record
class Truncation:
    """Degree caps: total degree in the q-variables, degree in Q, order in lam.

    A cap of None bounds the q-degree or the Q exponent at 2^64 - 1 and
    leaves lam unbounded; operations that need a cap to terminate (exp,
    log) refuse to run without one.
    """

    q_total: int | None = None
    big_q: int | None = None
    lam: int | None = None

    def __post_init__(self) -> None:
        for cap in (self.q_total, self.big_q, self.lam):
            if cap is not None and as_int(cap, "a truncation cap") < 0:
                raise ConfigurationError("truncation caps must be nonnegative")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ConfigurationError(f"series coefficients must be rational, got {type(x).__name__}")


@lru_cache(maxsize=256)
def _layout(variables, truncation) -> tuple:
    """(shift, mask) per variable of a packed key in the ring: the
    q-variables, then Q (no width without a Q variable), each as wide as its
    cap or, uncapped, as _TOP; lam on top, unmasked."""
    t = truncation
    wq = (_TOP if t.q_total is None else t.q_total).bit_length()
    wQ = (_TOP if t.big_q is None else t.big_q).bit_length() if "Q" in variables else 0
    qs = [v for v in variables if v not in ("Q", "lam")]
    top = len(qs) * wq + wQ
    place = {"Q": (top - wQ, (1 << wQ) - 1), "lam": (top, -1)}
    place.update((v, (i * wq, (1 << wq) - 1)) for i, v in enumerate(qs))
    return tuple(place[v] for v in variables)


def _check_top(t: Truncation, q: int, big_q: int) -> None:
    """Refuse a q-degree or Q exponent past _TOP in an uncapped direction."""
    if max(q if t.q_total is None else 0, big_q if t.big_q is None else 0) > _TOP:
        raise ConfigurationError("an uncapped q-degree or Q exponent is bounded at 2^64 - 1")


def _exponent_key(variables, exponents: Mapping[str, int]) -> tuple[int, ...]:
    return tuple(as_int(e, "an exponent") for e in dense(exponents, variables, "variables"))


def _pack(lay, key) -> int:
    return sum(e << s for e, (s, _) in zip(key, lay))


def _unpack(lay, k: int) -> tuple[int, ...]:
    return tuple([(k >> s) & m for s, m in lay])  # a list builds faster than a generator


_UNIT = {(0, 0, 0): {0: 1}}


class MultiSeries:
    """A truncated series: mapping from exponent tuples to Fractions.

    Construct through `zero`, `one`, `monomial` or `from_terms`; instances
    are immutable by convention (no mutating API).  A given key, stored
    (even with a zero coefficient) or looked up, with an exponent that is
    not an integer, a negative q or Q exponent, a lam exponent below -2 or,
    in an uncapped direction, a q-degree or Q exponent past 2^64 - 1 is a
    ConfigurationError.  So is an operand of +, - or * that is neither a
    series nor a rational, and a product past 2^64 - 1 in an uncapped
    direction.  A key past a cap reads 0, and a product that falls below
    the lam floor is an InternalConsistencyError.  ``_parts`` maps grade
    triples to {packed key: numerator over ``_den``}, in the ring's layout.
    """

    __slots__ = ("variables", "truncation", "_lay", "_parts", "_den")

    def __init__(self, variables, truncation, terms):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ConfigurationError("duplicate series variables")
        self.variables, self.truncation = variables, truncation
        caps = (truncation.q_total, truncation.big_q, truncation.lam)
        kept: dict = {}
        for key, coeff in terms.items():
            key = tuple(as_int(e, "an exponent") for e in key)
            if len(key) != len(variables):
                raise ConfigurationError("exponent tuple does not match the variables")
            grades, coeff = self._grades(key), _as_fraction(coeff)
            if coeff and all(cap is None or d <= cap for d, cap in zip(grades, caps)):
                kept.setdefault(grades, {})[key] = coeff
        self._lay = lay = _layout(variables, truncation)
        self._den = den = lcm(*(c.denominator for b in kept.values() for c in b.values()))
        self._parts = {g: {_pack(lay, k): c.numerator * (den // c.denominator)
                           for k, c in b.items()} for g, b in kept.items()}

    # -- bookkeeping -------------------------------------------------------

    def _grades(self, key) -> tuple[int, int, int]:
        """(q-degree, Q-degree, lam exponent) of a given key the ring can hold."""
        e = dict(zip(self.variables, key))
        big_q, lam = e.pop("Q", 0), e.pop("lam", 0)
        if big_q < 0 or any(x < 0 for x in e.values()):
            raise ConfigurationError("negative exponent in a q or Q variable")
        if lam < LAMBDA_FLOOR:
            raise ConfigurationError(f"lambda exponent {lam} fell below {LAMBDA_FLOOR}")
        q = sum(e.values())
        _check_top(self.truncation, q, big_q)
        return q, big_q, lam

    def _make(self, parts, den) -> "MultiSeries":
        """A series in this ring from graded int numerators over ``den``;
        zeros drop and the fraction is reduced."""
        kept, g = {}, den
        for grades, b in parts.items():
            if 0 in b.values():
                b = {k: c for k, c in b.items() if c}
            if b:
                kept[grades] = b
                g = gcd(g, *b.values())
        out = object.__new__(MultiSeries)
        out.variables, out.truncation = self.variables, self.truncation
        out._lay, out._den, out._parts = self._lay, den // g, kept if g == 1 else {
            gr: {k: c // g for k, c in b.items()} for gr, b in kept.items()}
        return out

    def _accumulate(self, acc: dict, left: dict, right: dict, m: int = 1) -> None:
        """Add m times the capped product of two graded term sets into ``acc``.

        A bucket pair whose grades pass a cap is skipped before any of its
        terms is formed; one that passes the lambda floor, or 2^64 - 1 in an
        uncapped q or Q direction, raises, whether or not a cap would have
        dropped it.
        """
        t = self.truncation
        cq, cQ, cl = (_TOP if t.q_total is None else t.q_total,
                      _TOP if t.big_q is None else t.big_q, t.lam)
        for (qa, Qa, la), ta in left.items():
            for (qb, Qb, lb), tb in right.items():
                ld = la + lb
                if ld < LAMBDA_FLOOR:
                    raise InternalConsistencyError(
                        f"lambda exponent {ld} fell below {LAMBDA_FLOOR}")
                qd, Qd = qa + qb, Qa + Qb
                if qd > cq or Qd > cQ or (cl is not None and ld > cl):
                    if qd > _TOP or Qd > _TOP:
                        _check_top(t, qd, Qd)
                    continue
                bucket = acc.setdefault((qd, Qd, ld), {})
                get = bucket.get
                small, big = (ta, tb) if len(ta) <= len(tb) else (tb, ta)
                for ka, ca in small.items():
                    ca *= m
                    for kb, cb in big.items():
                        k = ka + kb
                        bucket[k] = get(k, 0) + ca * cb

    def _combine(self, pairs) -> "MultiSeries":
        """sum of c * s over the (c, s) pairs, as products with the unit."""
        for _, s in pairs:
            self._check_compatible(s)
        pairs = [(_as_fraction(c), s) for c, s in pairs]
        den = lcm(*(c.denominator * s._den for c, s in pairs))
        acc: dict = {}
        for c, s in pairs:
            self._accumulate(acc, s._parts, _UNIT,
                             c.numerator * (den // (c.denominator * s._den)))
        return self._make(acc, den)

    def _check_compatible(self, other: "MultiSeries") -> None:
        if not isinstance(other, MultiSeries):
            raise ConfigurationError(f"a series operand must be a MultiSeries, got {other!r}")
        if self.variables != other.variables or self.truncation != other.truncation:
            raise ConfigurationError("series live in different truncated rings")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables, truncation) -> "MultiSeries":
        return MultiSeries(variables, truncation, {})

    @staticmethod
    def one(variables, truncation) -> "MultiSeries":
        key = (0,) * len(tuple(variables))
        return MultiSeries(variables, truncation, {key: Fraction(1)})

    @staticmethod
    def monomial(variables, truncation, exponents: Mapping[str, int], coeff=1):
        variables = tuple(variables)
        key = _exponent_key(variables, exponents)
        return MultiSeries(variables, truncation, {key: _as_fraction(coeff)})

    @staticmethod
    def from_terms(variables, truncation, terms) -> "MultiSeries":
        return MultiSeries(variables, truncation, dict(terms))

    @staticmethod
    def linear_combination(variables, truncation, pairs) -> "MultiSeries":
        """sum of c * s over the (rational c, series s) pairs, in one pass."""
        return MultiSeries.zero(variables, truncation)._combine(list(pairs))

    # -- inspection --------------------------------------------------------

    def items(self):
        lay, den = self._lay, self._den
        return {_unpack(lay, k): Fraction(c, den)
                for b in self._parts.values() for k, c in b.items()}.items()

    def __len__(self) -> int:
        return sum(map(len, self._parts.values()))

    def is_zero(self) -> bool:
        return not self._parts

    def coefficient(self, exponents: Mapping[str, int]) -> Fraction:
        key = _exponent_key(self.variables, exponents)
        grades = self._grades(key)
        k = _pack(self._lay, key)
        if _unpack(self._lay, k) != key:  # a field overflowed: no stored key is there
            return Fraction(0)
        return Fraction(self._parts.get(grades, {}).get(k, 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._parts.get((0, 0, 0), {}).get(0, 0), self._den)

    def lambda_slices(self) -> dict[int, "MultiSeries"]:
        """Split by the lam exponent; each slice keeps lam exponent 0."""
        if "lam" not in self.variables:
            raise ConfigurationError("series has no lam variable")
        shift = self._lay[self.variables.index("lam")][0]
        out: dict[int, dict] = {}
        for (q, Q, d), b in self._parts.items():
            out.setdefault(d, {})[q, Q, 0] = {k - (d << shift): c for k, c in b.items()}
        return {d: self._make(p, self._den) for d, p in sorted(out.items())}

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        if (self.variables, self.truncation, self._den) != (
                other.variables, other.truncation, other._den):
            return False
        return self._parts == other._parts

    def __hash__(self):
        return hash((self.variables, self.truncation, frozenset(self.items())))

    def __repr__(self) -> str:
        return f"MultiSeries({self.format_text()})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        return self._combine([(1, self), (1, other)])

    __radd__ = __add__  # so 1 + s is refused like s + 1

    def __neg__(self) -> "MultiSeries":
        return self.scale(-1)

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self._combine([(1, self), (-1, other)])

    def __rsub__(self, other) -> "MultiSeries":
        return self._combine([(1, other), (-1, self)])

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            return self.scale(other)  # which refuses a factor that is not rational
        self._check_compatible(other)
        acc: dict = {}
        self._accumulate(acc, self._parts, other._parts)
        return self._make(acc, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiSeries":
        return self._combine([(c, self)])

    def __pow__(self, n: int) -> "MultiSeries":
        if not isinstance(n, int) or n < 0:
            raise ConfigurationError("series powers take nonnegative integers")
        acc = MultiSeries.one(self.variables, self.truncation)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    # -- transcendental operations ----------------------------------------

    def _weight_parts(self) -> tuple[int, dict[int, dict]]:
        """The top grade (the sum of the caps) and the non-constant buckets
        by capped grade, for exp/log; no grade past the top is nonzero.

        Every term must raise at least one capped grading, and lam exponents
        must be nonnegative so products cannot dive toward the lam floor.
        """
        t = self.truncation
        top = sum(cap for cap in (t.q_total, t.big_q, t.lam) if cap is not None)
        out: dict[int, dict] = {}
        for (qd, Qd, ld), bucket in self._parts.items():
            if ld < 0:
                raise ConfigurationError(
                    "exp/log need nonnegative lam exponents in the argument")
            w = ((qd if t.q_total is not None else 0)
                 + (Qd if t.big_q is not None else 0)
                 + (ld if t.lam is not None else 0))
            if w == 0 and (qd, Qd, ld) != (0, 0, 0):
                raise ConfigurationError(
                    "exp/log argument has a term no truncation cap controls")
            if w:
                out.setdefault(w, {})[qd, Qd, ld] = bucket
        return top, out

    def exp(self) -> "MultiSeries":
        """Exponential; the argument needs zero constant term.

        With g the argument, f = exp(g) grows grade by grade from f_0 = 1:
        w * f_w = sum_k (k * g_k) * f_(w-k).
        """
        if self.constant_term() != 0:
            raise ConfigurationError("exp needs a zero constant term")
        top, g = self._weight_parts()
        f = [self._make(_UNIT, 1)]
        for w in range(1, top + 1):
            terms = [(k, part, f[w - k]) for k, part in g.items() if k <= w and f[w - k]._parts]
            den = lcm(*(fk._den for _, _, fk in terms))
            acc: dict = {}
            for k, part, fk in terms:
                self._accumulate(acc, part, fk._parts, k * (den // fk._den))
            f.append(self._make(acc, den * self._den * w))
        return self._combine([(1, piece) for piece in f])

    def log(self) -> "MultiSeries":
        """Logarithm; the argument needs constant term one.

        With f the argument, g = log(f) follows grade by grade:
        w * g_w = w * f_w - sum_{k<w} (k * g_k) * f_(w-k).
        """
        if self.constant_term() != 1:
            raise ConfigurationError("log needs constant term one")
        top, f = self._weight_parts()
        g: dict[int, MultiSeries] = {}
        for w in range(1, top + 1):
            terms = [(k, gk) for k, gk in g.items() if gk._parts and w - k in f]
            den = lcm(*(gk._den for _, gk in terms))
            acc: dict = {}
            self._accumulate(acc, f.get(w, {}), _UNIT, w * den)
            for k, gk in terms:
                self._accumulate(acc, gk._parts, f[w - k], -k * (den // gk._den))
            g[w] = self._make(acc, den * self._den * w)
        return self._combine([(1, piece) for piece in g.values()])

    def pow_rational(self, r: Fraction) -> "MultiSeries":
        """(series)^r for rational r; the base needs constant term one."""
        r = _as_fraction(r)
        return self.log().scale(r).exp()

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int, int]]:
        """(key, numerator, denominator) per term, the fraction in lowest
        terms, in graded lexicographic order (total degree, then key)."""
        lay, den = self._lay, self._den
        rows = []
        for b in self._parts.values():
            for k, c in b.items():
                key, g = _unpack(lay, k), gcd(c, den)
                rows.append((sum(key), key, c // g, den // g))
        rows.sort()
        return [(key, n, d) for _, key, n, d in rows]

    def terms_jsonable(self) -> list:
        variables = self.variables
        return [{
            "exponents": {v: e for v, e in zip(variables, key) if e},
            "t_power": 0,  # the payload schema keeps the field; a series has no weight
            "numerator": str(n),
            "denominator": str(d),
        } for key, n, d in self.sorted_terms()]

    def format_text(self) -> str:
        if not self._parts:
            return "0"
        parts = []
        for key, n, d in self.sorted_terms():
            coeff = str(n) if d == 1 else f"{n}/{d}"
            mono = "*".join(var if e == 1 else f"{var}^{e}"
                            for var, e in zip(self.variables, key) if e)
            if not mono:
                parts.append(coeff)
            elif d == 1 and n in (1, -1):
                parts.append(mono if n == 1 else f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# library of expansions
# ---------------------------------------------------------------------------


def macmahon_exponent(variables, truncation, beta: Mapping[str, int]) -> MultiSeries:
    """The expansion sum_{m>=1} sum_{j>=1} m * q^(j*beta) * Q^(j*m) / j,
    which is -sum_m m*log(1 - q^beta Q^m).

    exp(-w * this) equals prod_{m>=1} (1 - q^beta Q^m)^(m*w).
    The truncation must cap both the q-total and the Q degree.
    """
    t = truncation
    if t.q_total is None or t.big_q is None:
        raise ConfigurationError("the MacMahon factor needs q and Q caps")
    variables = tuple(variables)
    if "Q" not in variables:
        raise ConfigurationError("the MacMahon factor needs a Q variable")
    beta_key = _exponent_key(variables, beta)
    beta_total = sum(
        e for v, e in zip(variables, beta_key) if v not in ("Q", "lam")
    )
    if beta_total < 1:
        raise ConfigurationError("beta must have positive degree")
    acc: dict[tuple[int, ...], Fraction] = {}
    qi = variables.index("Q")
    for j in range(1, t.q_total // beta_total + 1):
        for m in range(1, t.big_q // j + 1):
            key = tuple(
                j * b + (j * m if i == qi else 0) for i, b in enumerate(beta_key)
            )
            acc[key] = acc.get(key, Fraction(0)) + Fraction(m, j)
    return MultiSeries(variables, truncation, acc)


def macmahon_factor(variables, truncation, beta, weight) -> MultiSeries:
    """prod_{m>=1} (1 - q^beta Q^m)^(m*weight) as a truncated series.

    One such factor, at weight n0, is the contribution of a genus-zero BPS
    state in the class beta to the partition function.
    """
    w = _as_fraction(weight)
    return macmahon_exponent(variables, truncation, beta).scale(-w).exp()


def sin_power_expansion(d: int, g: int, lambda_order: int) -> MultiSeries:
    """(1/d) * (2*sin(d*lam/2))^(2g-2) as an exact lam-Laurent series.

    The degree-d, genus-g multiple-cover kernel: at g = 0 the leading term
    is lam^-2/d^3, at g = 1 the series is the constant 1/d.  It is zero when
    its leading power 2g-2 lies past the lambda order.
    """
    d, g = as_int(d, "the cover degree"), as_int(g, "the genus")
    lambda_order = as_int(lambda_order, "the lambda order")
    if g < 0:
        raise ConfigurationError("the genus must be nonnegative")
    if lambda_order < 0 or lambda_order % 2:
        raise ConfigurationError("the lambda order must be even and nonnegative")
    if d < 1:
        raise ConfigurationError("the cover degree d must be positive")
    power, tr = 2 * g - 2, Truncation(lam=lambda_order)
    n = lambda_order - power
    if n < 0:
        return MultiSeries.zero(("lam",), tr)
    # 2*sin(d*lam/2) = d * lam * v(lam) with v(0) = 1, so the kernel is
    # d^power/d * lam^power * v^power; v^power is needed through lam^n.
    # The coefficient of lam^(2k) in v is (-1)^k d^(2k) / (2^(2k) (2k+1)!).
    v = {(2 * k,): Fraction((-d * d) ** k, 4 ** k * factorial(2 * k + 1))
         for k in range(n // 2 + 1)}
    vp = MultiSeries(("lam",), Truncation(lam=n), v).pow_rational(power)
    scale = Fraction(d) ** power / d
    return MultiSeries(("lam",), tr, {(power + e,): scale * c for (e,), c in vp.items()})
