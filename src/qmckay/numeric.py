"""The mpf views of the orbifold potential and of character values.

`qmckay.crc` computes every Taylor coefficient of the potential, and both
routes of the third partials at x = 0, exactly.  The functions here read
those exact values at a decimal precision, or work at one where no exact
value exists: `third_partial` at real x, `h_derivative` at a real point, and
the complex views `as_mpc`, `linear_forms` and `change_of_variables`.
`taylor_third_partial`, `b_series` and `resolution_third_partials` each
convert exact rationals once, and `rational_guess` reads a small rational
back from a decimal.  mpmath is imported by the functions that form an mpf,
not by this module.  `crc` keeps the exact layer and reads these names from
here on first access (PEP 562), so a request that forms no mpf never
compiles them; no CLI command forms one.  Every precision opens mpmath's
context through `_guarded`, which refuses a dps that is not an integer of at
least 1, and each view calls it before any other work; a class argument is a
label or an index (`errors.position`), and x is a sparse {label: value} map
(`errors.dense`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from . import DEFAULT_DPS, _GUARD, crc
from .errors import ConfigurationError, PoleError, as_int, dense, position
from .grouprep import Cyclotomic, GroupSpec, correspondence
from .records import record

__all__ = [
    "ChangeOfVariables", "FormSystem", "LinearForm", "as_mpc", "b_series",
    "change_of_variables", "h_derivative", "linear_forms", "rational_guess",
    "resolution_third_partials", "taylor_third_partial", "third_partial",
]


def _near_pole(cos_value, dps: int) -> bool:
    import mpmath as mp

    # 10^-(dps - _GUARD), but never coarser than 10^-(dps // 2) or 10^-1, so
    # that ordinary points still evaluate at low precision
    return abs(cos_value) < mp.mpf(10) ** -max(dps - _GUARD, dps // 2, 1)


def _guarded(dps: int):
    """mpmath's working context at dps plus guard digits; dps must be an
    integer >= 1, which is checked before mpmath is imported."""
    dps = crc._precision(dps)
    import mpmath as mp

    return mp.workdps(dps + _GUARD)


def _as_mpf(values, dps: int) -> list:
    """Exact rationals as mpf at dps plus guard digits."""
    import mpmath as mp

    with _guarded(dps):
        return [mp.mpf(v.numerator) / v.denominator for v in values]


# ---------------------------------------------------------------------------
# the derivatives of h
# ---------------------------------------------------------------------------


def _poly_eval(p: tuple[Fraction, ...], t):
    import mpmath as mp

    acc = mp.mpf(0)
    for c in reversed(p):
        acc = acc * t + mp.mpf(c.numerator) / c.denominator
    return acc


def h_derivative(n: int, s, dps: int = DEFAULT_DPS):
    """The n-th derivative of h at a real point s, n >= 3.

    Refuses points too close to the poles of tan(-s/2), and points that are
    not finite, instead of returning a huge or meaningless value.
    """
    import mpmath as mp

    poly = crc._h_poly(n)  # refuses n < 3 before s is read
    with _guarded(dps):
        s = mp.mpf(s)
        if not mp.isfinite(s):
            raise ConfigurationError(f"h^({n}) needs a finite point, got s = {s}")
        if _near_pole(mp.cos(s / 2), dps):
            raise PoleError(f"h^({n}) evaluated within pole tolerance of s = {mp.nstr(s, 8)}")
        t = mp.tan(-s / 2)
        return _poly_eval(poly, t)


# ---------------------------------------------------------------------------
# linear forms
# ---------------------------------------------------------------------------


@record
class LinearForm:
    """X_rho = constant + sum over nontrivial classes of coefficient * x."""

    irrep: str
    constant_turn: Fraction  # constant / (2*pi) = dim(rho) / |G|
    coefficients: tuple  # complex values, one per nontrivial class


@record
class FormSystem:
    spec: GroupSpec
    class_labels: tuple[str, ...]  # nontrivial classes, model order
    forms: tuple[LinearForm, ...]  # one per Irr*(G) slot
    dps: int


def as_mpc(v: Cyclotomic) -> mp.mpc:
    """The complex value of ``v`` at the ambient mpmath precision.

    This is the only numeric view of a character value.  Integers are
    converted exactly; a self-conjugate value is summed as cosines, so its
    imaginary part is exactly 0; any other value is summed from exp(2*pi*i*e/n).
    Sums run with guard digits and are rounded once.
    """
    import mpmath as mp

    value = v.integer_value()
    if value is not None:
        return mp.mpc(value)
    n = v.n
    with mp.extradps(_GUARD):
        if v == v.conjugate():
            z = mp.fsum(c * mp.cospi(mp.mpf(2 * min(e, n - e)) / n) for e, c in v.terms)
        else:
            z = mp.fsum(c * mp.expjpi(mp.mpf(2 * e) / n) for e, c in v.terms)
    return mp.mpc(+z)


def linear_forms(spec: GroupSpec, dps: int = DEFAULT_DPS) -> FormSystem:
    guarded = _guarded(dps)  # refuses a bad dps before the correspondence is built
    corr = correspondence(spec)
    g = corr.group
    with guarded:
        forms = tuple(
            LinearForm(
                irrep=label,
                constant_turn=Fraction(g.irreps[s].dim, g.order),
                coefficients=tuple(Fraction(c.size, g.order) * as_mpc(entry)
                                   for c, entry in zip(g.classes[1:], row)),
            )
            for s, label, row in zip(corr.slots, corr.slot_labels, crc._exact_forms(spec)[1])
        )
    return FormSystem(
        spec=spec,
        class_labels=tuple(c.label for c in g.classes[1:]),
        forms=forms,
        dps=dps,
    )


@record
class _RootForm:
    """One curve class's affine form at the working precision."""

    multiplicity: int  # positive roots over the class
    dim_sum: int  # sum of beta^rho * dim(rho), in (0, |G|)
    coefficients: tuple  # complex, per nontrivial class


@lru_cache(maxsize=None)
def _root_forms(spec: GroupSpec, dps: int) -> tuple[FormSystem, tuple[_RootForm, ...]]:
    import mpmath as mp

    system = linear_forms(spec, dps)
    columns = list(zip(*(form.coefficients for form in system.forms)))  # L_s(C) per class
    with _guarded(dps):
        roots = tuple(
            _RootForm(multiplicity=fiber, dim_sum=dim_sum, coefficients=tuple(
                sum(b * f for b, f in zip(beta, column) if b) for column in columns))
            for fiber, dim_sum, beta in crc._classes(spec)
        )
    return system, roots


def taylor_third_partial(potential: crc.PotentialSeries, k, k2, k3) -> mp.mpf:
    """Third partial at 0 from Taylor data: the exact coefficient times the
    exponent factorials, as mpf at the potential's dps plus guard digits."""
    labels = potential.class_labels
    key = [0] * len(labels)
    for kk in (k, k2, k3):
        key[position(labels, kk, "conjugacy class")] += 1
    value = potential.rationals.get(tuple(key), 0) * prod(map(factorial, key))
    return _as_mpf([value], potential.dps)[0]


def third_partial(spec: GroupSpec, k, k2, k3, x=None, dps: int = DEFAULT_DPS):
    """Third partial of the potential at the point x by the closed formula

        -(1/4) * sum over roots of l_k l_k' l_k'' * tan(theta/2 + pi/2),

    where theta is the root's form evaluated at x and l its x-gradient.
    x maps class labels to finite real values; omitted entries are zero.
    """
    import mpmath as mp

    guarded = _guarded(dps)  # refuses a bad dps before it is a cache key
    system, roots = _root_forms(spec, dps)
    order = correspondence(spec).group.order
    labels = system.class_labels
    idx = [position(labels, kk, "conjugacy class") for kk in (k, k2, k3)]
    x = dict(x or {})
    with guarded:
        xvec = [mp.mpf(v) for v in dense(x, labels, "conjugacy classes")]
        if not all(map(mp.isfinite, xvec)):
            raise ConfigurationError(f"third partial needs finite x, got {x}")
        total = mp.mpc(0)
        for root in roots:
            theta = 2 * mp.pi * mp.mpf(root.dim_sum) / order
            for xv, l in zip(xvec, root.coefficients):
                if xv:
                    theta = theta + xv * l
            arg = theta / 2 + mp.pi / 2
            if _near_pole(mp.cos(arg), dps):
                raise PoleError(f"third partial hit a tan pole at x = {x}")
            weight = mp.mpc(root.multiplicity)
            for i in idx:
                weight = weight * root.coefficients[i]
            total += weight * mp.tan(arg)
        total = -total / 4
        tol = mp.mpf(10) ** (-(dps // 2))
        if abs(total.imag) > tol:
            raise ConfigurationError(f"third partial came out non-real: {total}")
        return total.real


def b_series(spec: GroupSpec, n_terms: int, dps: int = DEFAULT_DPS) -> tuple:
    """Taylor coefficients in u of the third partial F_(s,s,r1)(x_s=0, x_r1=-u).

    Only defined for dihedral(3), whose two nontrivial classes are the
    flip class s and the rotation class r1.  The u^j coefficient is
    2 (j+1) (-1)^j times the exact coefficient of x_s^2 x_r1^(j+1) of
    `orbifold_potential`, as mpf at dps plus guard digits.
    """
    if spec != GroupSpec.dihedral(3):
        raise ConfigurationError("the b-series is specific to dihedral(3)")
    if as_int(n_terms, "the number of terms") < 1:
        raise ConfigurationError("need at least one coefficient")
    potential = crc.orbifold_potential(spec, n_terms + 2, dps)
    exact = [
        2 * (j + 1) * (-1) ** j * potential.rationals.get(
            tuple({"s": 2, "r1": j + 1}[lbl] for lbl in potential.class_labels), 0)
        for j in range(n_terms)
    ]
    return tuple(_as_mpf(exact, dps))


# ---------------------------------------------------------------------------
# change of variables and the resolution route
# ---------------------------------------------------------------------------


@record
class ChangeOfVariables:
    """Substitution tying the two potentials together.

    y[rho] = i * sum over classes of L_rho(g) x_g, and each quantum
    parameter specializes to the root of unity exp(2*pi*i*dim(rho)/|G|),
    stored here by its exact turn dim(rho)/|G|.
    """

    spec: GroupSpec
    class_labels: tuple[str, ...]
    irrep_labels: tuple[str, ...]
    y_coefficients: tuple[tuple, ...]  # rows: irreps, columns: classes (i*L)
    q_turns: tuple[Fraction, ...]
    dps: int


def change_of_variables(spec: GroupSpec, dps: int = DEFAULT_DPS) -> ChangeOfVariables:
    import mpmath as mp

    system = linear_forms(spec, dps)
    with _guarded(dps):
        rows = tuple(
            tuple(mp.mpc(0, 1) * c for c in form.coefficients) for form in system.forms
        )
    return ChangeOfVariables(
        spec=spec,
        class_labels=system.class_labels,
        irrep_labels=tuple(f.irrep for f in system.forms),
        y_coefficients=rows,
        q_turns=tuple(f.constant_turn for f in system.forms),
        dps=dps,
    )


def resolution_third_partials(spec: GroupSpec, dps: int = DEFAULT_DPS) -> dict:
    """Third partials at x = 0 computed from the resolution side:

        i^3 * (classical cubic contracted with L three times)
      + sum over roots of (i^3/2) l_k l_k' l_k'' w/(1-w),  w = exp(i*theta0).

    Returns a dict over nondecreasing index triples of the exact values of
    `_resolution_rationals` as complex numbers with imaginary part 0.
    """
    import mpmath as mp

    guarded = _guarded(dps)  # refuses a bad dps before the exact work
    exact = crc._resolution_rationals(spec)
    with guarded:
        return {t: mp.mpc(mp.mpf(v.numerator) / v.denominator) for t, v in exact.items()}


def rational_guess(value, max_denominator: int = 10 ** 6, dps: int = DEFAULT_DPS):
    """A small rational within 1e-20 of the value, or None.

    The candidate comes from a continued-fraction pass on the exact binary
    value; acceptance is decided at full precision.  A value that is not
    finite gets None, and so does one whose last place at that precision is
    coarser than 1e-20, because being within 1e-20 of a rational says
    nothing about it.
    """
    import mpmath as mp

    if as_int(max_denominator, "the largest denominator") < 1:
        raise ConfigurationError("the largest denominator must be at least 1")
    with _guarded(dps):
        value = mp.mpf(value)
        if not mp.isfinite(value):
            return None
        if value and mp.ldexp(1, mp.mag(value) - mp.mp.prec) > mp.mpf("1e-20"):
            return None
        exact = Fraction(*mp.libmp.to_rational(value._mpf_))
        candidate = exact.limit_denominator(max_denominator)
        delta = abs(value - mp.mpf(candidate.numerator) / candidate.denominator)
        if delta < mp.mpf("1e-20"):
            return candidate
        return None
