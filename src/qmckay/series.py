"""Exact truncated multivariate series over the rationals.

Everything downstream (partition functions, curve-counting generating
series, multiple-cover sums) lives in the ring
``Q[[q1..qr, Q]][lam^-2, lam]]`` truncated by total q-degree, Q-degree and
lam-order.  Coefficients are `fractions.Fraction`, so equality of two
pipelines is exact, never a tolerance.

Variable-name convention (internal contract): variables named ``Q`` and
``lam`` play the special roles; every other variable counts toward the
total q-degree.  ``lam`` may carry exponents down to -2 (genus-zero free
energies need a double pole); anything below -2 signals an algebra misuse
and raises instead of truncating silently.

A series also carries ``t_power``, the power of the equivariant weight the
whole series is a multiple of.  It adds under multiplication and must agree
under addition; it exists so localised integrals keep their weight bookkeeping
through series arithmetic.

Arithmetic is graded.  Every key has a grade triple (q-degree, Q-degree,
lam-order), and products work on buckets of terms that share a triple: a
pair of buckets whose grades add past a cap is skipped whole, before any of
its terms is formed.  `exp` and `log` use the Euler-operator recurrence of
Brent and Kung (Fast algorithms for manipulating formal power series,
J. ACM 25, 1978).  Let D multiply a monomial by its total capped grade (the
q-degree, the Q-degree and the lam-order, each counted only when its cap is
set).  For f = exp(g), D f = (D g) f, so the grade-w parts satisfy

    w * f_w = sum_{k=1..w} k * g_k * f_(w-k),

which gives f from g (exp) or g from f (log) one grade at a time, forming
only grade-w products.  Grades above the sum of the caps are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping

from .errors import ConfigurationError, InternalConsistencyError

LAMBDA_FLOOR = -2


@dataclass(frozen=True)
class Truncation:
    """Degree caps: total degree in the q-variables, degree in Q, order in lam.

    A cap of None leaves that direction unbounded; operations that need a
    cap to terminate (exp, log) refuse to run without one.
    """

    q_total: int | None = None
    big_q: int | None = None
    lam: int | None = None

    def __post_init__(self) -> None:
        for cap in (self.q_total, self.big_q, self.lam):
            if cap is not None and cap < 0:
                raise ConfigurationError("truncation caps must be nonnegative")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ConfigurationError(f"series coefficients must be rational, got {type(x).__name__}")


class MultiSeries:
    """A truncated series: mapping from exponent tuples to Fractions.

    Construct through `zero`, `one`, `monomial` or `from_terms`; instances
    are immutable by convention (no mutating API).
    """

    __slots__ = ("variables", "truncation", "t_power", "_terms", "_qidx", "_Qidx", "_lidx")

    def __init__(self, variables, truncation, terms, t_power=0):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ConfigurationError("duplicate series variables")
        self.variables = variables
        self.truncation = truncation
        self.t_power = t_power
        self._qidx = tuple(i for i, v in enumerate(variables) if v not in ("Q", "lam"))
        self._Qidx = variables.index("Q") if "Q" in variables else None
        self._lidx = variables.index("lam") if "lam" in variables else None
        clean: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in terms.items():
            key = tuple(key)
            if len(key) != len(variables):
                raise ConfigurationError("exponent tuple does not match the variables")
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            kept = self._clip(key)
            if kept:
                clean[key] = coeff
        self._terms = clean

    # -- bookkeeping -------------------------------------------------------

    def _grades(self, key) -> tuple[int, int, int]:
        qd = sum(key[i] for i in self._qidx)
        Qd = key[self._Qidx] if self._Qidx is not None else 0
        ld = key[self._lidx] if self._lidx is not None else 0
        return qd, Qd, ld

    def _clip(self, key) -> bool:
        """True when the key survives the truncation caps."""
        qd, Qd, ld = self._grades(key)
        if any(key[i] < 0 for i in self._qidx) or Qd < 0:
            raise InternalConsistencyError("negative exponent in a q or Q variable")
        if ld < LAMBDA_FLOOR:
            raise InternalConsistencyError(f"lambda exponent {ld} fell below {LAMBDA_FLOOR}")
        t = self.truncation
        if t.q_total is not None and qd > t.q_total:
            return False
        if t.big_q is not None and Qd > t.big_q:
            return False
        if t.lam is not None and ld > t.lam:
            return False
        return True

    def _like(self, terms) -> "MultiSeries":
        return MultiSeries(self.variables, self.truncation, terms, self.t_power)

    def _from_graded(self, parts, t_power: int) -> "MultiSeries":
        """A series in this ring from graded buckets whose keys already
        respect the caps and the lambda floor; zero coefficients drop."""
        out = object.__new__(MultiSeries)
        out.variables = self.variables
        out.truncation = self.truncation
        out.t_power = t_power
        out._qidx, out._Qidx, out._lidx = self._qidx, self._Qidx, self._lidx
        out._terms = {
            key: c for bucket in parts for key, c in bucket.items() if c
        }
        return out

    def _graded(self) -> dict:
        """Terms bucketed by grade triple: {(q, Q, lam): {key: coeff}}."""
        out: dict[tuple[int, int, int], dict] = {}
        for key, c in self._terms.items():
            out.setdefault(self._grades(key), {})[key] = c
        return out

    def _accumulate(self, acc: dict, left: dict, right: dict) -> None:
        """Add the capped product of two graded term sets into ``acc``.

        A bucket pair whose grades pass a cap is skipped before any of its
        terms is formed; one that passes the lambda floor raises, whether or
        not a cap would have dropped it.
        """
        t = self.truncation
        cq, cQ, cl = t.q_total, t.big_q, t.lam
        for (qa, Qa, la), ta in left.items():
            for (qb, Qb, lb), tb in right.items():
                ld = la + lb
                if ld < LAMBDA_FLOOR:
                    raise InternalConsistencyError(
                        f"lambda exponent {ld} fell below {LAMBDA_FLOOR}")
                qd, Qd = qa + qb, Qa + Qb
                if ((cq is not None and qd > cq) or (cQ is not None and Qd > cQ)
                        or (cl is not None and ld > cl)):
                    continue
                bucket = acc.setdefault((qd, Qd, ld), {})
                get = bucket.get
                for ka, ca in ta.items():
                    for kb, cb in tb.items():
                        key = tuple(map(add, ka, kb))
                        bucket[key] = get(key, 0) + ca * cb

    def _check_compatible(self, other: "MultiSeries") -> None:
        if self.variables != other.variables or self.truncation != other.truncation:
            raise ConfigurationError("series live in different truncated rings")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables, truncation, t_power=0) -> "MultiSeries":
        return MultiSeries(variables, truncation, {}, t_power)

    @staticmethod
    def one(variables, truncation, t_power=0) -> "MultiSeries":
        key = (0,) * len(tuple(variables))
        return MultiSeries(variables, truncation, {key: Fraction(1)}, t_power)

    @staticmethod
    def monomial(variables, truncation, exponents: Mapping[str, int], coeff=1, t_power=0):
        variables = tuple(variables)
        unknown = set(exponents) - set(variables)
        if unknown:
            raise ConfigurationError(f"unknown variables {sorted(unknown)}")
        key = tuple(exponents.get(v, 0) for v in variables)
        return MultiSeries(variables, truncation, {key: _as_fraction(coeff)}, t_power)

    @staticmethod
    def from_terms(variables, truncation, terms, t_power=0) -> "MultiSeries":
        return MultiSeries(variables, truncation, dict(terms), t_power)

    # -- inspection --------------------------------------------------------

    def items(self):
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exponents: Mapping[str, int]) -> Fraction:
        key = tuple(exponents.get(v, 0) for v in self.variables)
        return self._terms.get(key, Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * len(self.variables), Fraction(0))

    def lambda_slices(self) -> dict[int, "MultiSeries"]:
        """Split by the lam exponent; each slice keeps lam exponent 0."""
        if self._lidx is None:
            raise ConfigurationError("series has no lam variable")
        out: dict[int, dict] = {}
        li = self._lidx
        for key, coeff in self._terms.items():
            flat = key[:li] + (0,) + key[li + 1:]
            out.setdefault(key[li], {})[flat] = coeff
        return {d: self._like(t) for d, t in sorted(out.items())}

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.truncation == other.truncation
            and self.t_power == other.t_power
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.variables, self.truncation, self.t_power,
                     frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"MultiSeries({self.format_text()})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compatible(other)
        if self.t_power != other.t_power:
            raise ConfigurationError(
                f"cannot add series of weight t^{self.t_power} and t^{other.t_power}"
            )
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return self._like(terms)

    def __neg__(self) -> "MultiSeries":
        return self._like({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        acc: dict = {}
        self._accumulate(acc, self._graded(), other._graded())
        return self._from_graded(acc.values(), self.t_power + other.t_power)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiSeries":
        c = _as_fraction(c)
        return self._like({k: c * v for k, v in self._terms.items()})

    def with_t_power(self, t_power: int) -> "MultiSeries":
        return MultiSeries(self.variables, self.truncation, self._terms, t_power)

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

    def _grade_parts(self, terms) -> dict[int, dict]:
        """Split exp/log argument terms by total capped grade.

        Every term must raise at least one capped grading, and lam exponents
        must be nonnegative so products cannot dive toward the lam floor.
        """
        t = self.truncation
        parts: dict[int, dict] = {}
        for key, c in terms.items():
            qd, Qd, ld = grades = self._grades(key)
            if ld < 0:
                raise ConfigurationError(
                    "exp/log need nonnegative lam exponents in the argument")
            w = ((qd if t.q_total is not None else 0)
                 + (Qd if t.big_q is not None else 0)
                 + (ld if t.lam is not None else 0))
            if w == 0:
                raise ConfigurationError(
                    "exp/log argument has a term no truncation cap controls")
            parts.setdefault(w, {}).setdefault(grades, {})[key] = c
        return parts

    def _top_grade(self) -> int:
        """Total capped grade above which every key passes some cap."""
        t = self.truncation
        return sum(cap for cap in (t.q_total, t.big_q, t.lam) if cap is not None)

    def _unit_part(self) -> dict:
        return {(0, 0, 0): {(0,) * len(self.variables): Fraction(1)}}

    def exp(self) -> "MultiSeries":
        """Exponential; the argument needs zero constant term.

        With g the argument, f = exp(g) grows grade by grade from f_0 = 1:
        w * f_w = sum_k (k * g_k) * f_(w-k).
        """
        if self.constant_term() != 0:
            raise ConfigurationError("exp needs a zero constant term")
        if self.t_power != 0:
            raise ConfigurationError("exp argument must be weightless")
        dg = {k: _scale_part(part, k) for k, part in self._grade_parts(self._terms).items()}
        f = {0: self._unit_part()}
        for w in range(1, self._top_grade() + 1):
            acc: dict = {}
            for k, part in dg.items():
                if k <= w:
                    self._accumulate(acc, part, f[w - k])
            f[w] = _scale_part(acc, Fraction(1, w))
        return self._from_graded(
            [bucket for part in f.values() for bucket in part.values()], 0)

    def log(self) -> "MultiSeries":
        """Logarithm; the argument needs constant term one.

        With f the argument, g = log(f) follows grade by grade:
        w * g_w = w * f_w - sum_{k<w} (k * g_k) * f_(w-k).
        """
        if self.constant_term() != 1:
            raise ConfigurationError("log needs constant term one")
        if self.t_power != 0:
            raise ConfigurationError("log argument must be weightless")
        unit = (0,) * len(self.variables)
        f = self._grade_parts({k: c for k, c in self._terms.items() if k != unit})
        f[0] = self._unit_part()
        minus_dg: dict[int, dict] = {}  # -(k * g_k) per grade k
        out = []
        for w in range(1, self._top_grade() + 1):
            acc = _scale_part(f.get(w, {}), w)
            for k, part in minus_dg.items():
                if w - k in f:
                    self._accumulate(acc, part, f[w - k])
            minus_dg[w] = _scale_part(acc, -1)
            out.extend(_scale_part(acc, Fraction(1, w)).values())
        return self._from_graded(out, 0)

    def pow_rational(self, r: Fraction) -> "MultiSeries":
        """(series)^r for rational r; the base needs constant term one."""
        r = Fraction(r)
        return self.log().scale(r).exp()

    # -- presentation ------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded lexicographic order (total degree, then key)."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def terms_jsonable(self) -> list:
        out = []
        for key, coeff in self.sorted_terms():
            exponents = {v: e for v, e in zip(self.variables, key) if e != 0}
            out.append({
                "exponents": exponents,
                "t_power": self.t_power,
                "numerator": str(coeff.numerator),
                "denominator": str(coeff.denominator),
            })
        return out

    def format_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, coeff in self.sorted_terms():
            factors = []
            for var, e in zip(self.variables, key):
                if e == 0:
                    continue
                factors.append(var if e == 1 else f"{var}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        text = " + ".join(parts).replace("+ -", "- ")
        if self.t_power:
            text = f"({text}) * t^{self.t_power}"
        return text


def _scale_part(part: dict, c) -> dict:
    """Graded buckets times a rational, dropping zero coefficients."""
    return {
        grades: {key: c * v for key, v in bucket.items() if v}
        for grades, bucket in part.items()
    }


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
    beta_key = tuple(beta.get(v, 0) for v in variables)
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


def sin_power_coefficients(power: int, d: int, order: int) -> dict[int, Fraction]:
    """Taylor coefficients of (2*sin(d*lam/2))^power around lam = 0.

    Returns {lam exponent: coefficient} for exponents up to ``order``.
    Negative powers are fine (the leading exponent is ``power``); exact
    rational arithmetic throughout.
    """
    if d < 1:
        raise ConfigurationError("the cover degree d must be positive")
    if order < power:
        return {}
    # 2*sin(d*lam/2) = d * lam * v(lam) with v(0) = 1, so the power is
    # d^power * lam^power * v^power; v^power is needed through lam^n
    n = order - power
    v = {}
    sign = 1
    fact = 1
    k = 0
    while 2 * k <= n:
        # coefficient of lam^(2k) in v: (-1)^k d^(2k) / (2^(2k) (2k+1)!)
        v[(2 * k,)] = Fraction(sign * d ** (2 * k), (2 ** (2 * k)) * fact)
        k += 1
        fact *= (2 * k) * (2 * k + 1)
        sign = -sign
    vp = MultiSeries(("lam",), Truncation(lam=n), v).pow_rational(power)
    scale = Fraction(d) ** power
    return {power + key[0]: scale * c for key, c in sorted(vp.items())}


def sin_power_series(variables, truncation, power: int, d: int) -> MultiSeries:
    """(2*sin(d*lam/2))^power as a MultiSeries in the given ring."""
    t = truncation
    if t.lam is None:
        raise ConfigurationError("sine expansions need a lam cap")
    variables = tuple(variables)
    if "lam" not in variables:
        raise ConfigurationError("sine expansions need a lam variable")
    if power < LAMBDA_FLOOR:
        raise ConfigurationError(f"sine powers below {LAMBDA_FLOOR} leave the ring")
    li = variables.index("lam")
    coeffs = sin_power_coefficients(power, d, t.lam)
    terms = {}
    for e, c in coeffs.items():
        key = [0] * len(variables)
        key[li] = e
        terms[tuple(key)] = c
    return MultiSeries(variables, truncation, terms)


def sin_power_expansion(d: int, g: int, lambda_order: int) -> MultiSeries:
    """(1/d) * (2*sin(d*lam/2))^(2g-2) as an exact lam-Laurent series.

    The degree-d, genus-g multiple-cover kernel: at g = 0 the leading term
    is lam^-2/d^3, at g = 1 the series is the constant 1/d.
    """
    if g < 0:
        raise ConfigurationError("the genus must be nonnegative")
    if lambda_order < 0 or lambda_order % 2:
        raise ConfigurationError("the lambda order must be even and nonnegative")
    tr = Truncation(lam=lambda_order)
    return sin_power_series(("lam",), tr, 2 * g - 2, d).scale(Fraction(1, d))
