"""Quotient-side potential versus the resolution route, plus its pole guards."""

import functools
import inspect
import math
import sys
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations_with_replacement
from operator import or_

import jsonschema
import mpmath as mp
import pytest

import qmckay.crc as crc
import qmckay.grouprep as grouprep
import qmckay.modular as modular
import qmckay.numeric as numeric
from qmckay.crc import (
    DEFAULT_DPS,
    b_series,
    change_of_variables,
    crc_consistency,
    h_derivative,
    linear_forms,
    orbifold_potential,
    rational_guess,
    resolution_third_partials,
    taylor_third_partial,
    third_partial,
)
from qmckay.errors import ConfigurationError, InternalConsistencyError, PoleError
from qmckay.grouprep import GroupSpec, correspondence
from qmckay.intersect import classical_potential
from qmckay.rootsys import root_system
from qmckay.schemas import CRC_REPORT

D5 = GroupSpec.dihedral(3)

# Sigma_3 potential, x_s the flip direction and x_r1 the rotation direction.
SIGMA3_COEFFS = {
    (2, 1): Fraction(1, 2),
    (0, 3): Fraction(1, 18),
    (4, 0): Fraction(-5, 48),
    (2, 2): Fraction(-1, 6),
    (0, 4): Fraction(-1, 36),
    (4, 1): Fraction(1, 12),
    (2, 3): Fraction(1, 18),
    (0, 5): Fraction(1, 324),
}


def test_sigma3_potential_coefficients_frozen():
    pot = orbifold_potential(D5, 5)
    assert pot.class_labels == ("r1", "s")
    with mp.workdps(80):
        for (es, er), want in SIGMA3_COEFFS.items():
            got = pot.coefficient({"s": es, "r1": er})
            err = abs(got - mp.mpf(want.numerator) / want.denominator)
            assert err < mp.mpf("1e-50"), (es, er, err)


@pytest.mark.parametrize("spec", [D5, GroupSpec.octahedral(), GroupSpec.cyclic(5)], ids=str)
def test_exact_coefficients_do_not_depend_on_the_precision(spec):
    # the precision sets only the mpf view and the printed digits
    by_dps = [orbifold_potential(spec, 5, dps) for dps in (10, 15, 30, 64)]
    for pot in by_dps:
        assert pot.rationals == by_dps[-1].rationals
        assert set(pot.coefficients) == set(pot.rationals)
        assert all(pot.rationals.values())


def test_coefficients_are_the_rationals_at_the_working_precision():
    pot = orbifold_potential(GroupSpec.tetrahedral(), 5, 30)
    with mp.workdps(40):
        for key, exact in pot.rationals.items():
            assert pot.coefficients[key] == mp.mpf(exact.numerator) / exact.denominator


def _fill_primes(spec, modulus):
    """The primes of `modular.prime` whose product is one fill's modulus, the
    witness last."""
    m = crc._exact_forms(spec)[0]
    primes = []
    while modulus % modular.prime(m, len(primes))[0] == 0:
        primes.append(modular.prime(m, len(primes))[0])
    assert math.prod(primes) == modulus
    return primes


@pytest.mark.parametrize("corrupt", ["first prime", "witness prime"])
def test_witness_prime_rejects_a_corrupt_residue(monkeypatch, corrupt):
    honest = crc._residues
    calls = []

    def counting(*args):
        calls.append(args[-2])
        return honest(*args)

    monkeypatch.setattr(crc, "_residues", counting)
    orbifold_potential(D5, 5)
    # one fill, modulo one lifting prime and the witness at once
    assert len(calls) == 1 and len(_fill_primes(D5, calls[0])) == 2

    def corrupting(spec, levels, terms, degree, p, z):
        out = honest(spec, levels, terms, degree, p, z)
        primes = _fill_primes(spec, p)
        q = primes[0] if corrupt == "first prime" else primes[-1]
        # wrong modulo q alone: adding 1 modulo p would be the residue of c + 1/d
        out[0] = (out[0] + p // q) % p
        return out

    monkeypatch.setattr(crc, "_residues", corrupting)
    with pytest.raises(InternalConsistencyError):
        orbifold_potential(D5, 5)


def test_fp_primes_are_deterministic_and_of_the_right_shape():
    m = 24
    assert modular.prime(m, 0) == modular.prime(m, 0)
    (p0, z0), (p1, z1) = modular.prime(m, 0), modular.prime(m, 1)
    assert 2 ** 61 < p1 < p0 < 2 ** 62
    for p, z in ((p0, z0), (p1, z1)):
        assert p % m == 1 and modular.is_prime(p)
        assert pow(z, m, p) == 1
        assert all(pow(z, m // f, p) != 1 for f in (2, 3))
    assert [n for n in range(2, 60) if modular.is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
    # strong pseudoprimes to several small bases
    assert not any(modular.is_prime(n) for n in (2047, 3215031751, 3825123056546413051))


ORDER_SPECS = (
    [GroupSpec.cyclic(k) for k in range(2, 61)]
    + [GroupSpec.dihedral(m) for m in range(2, 61)]
    + [GroupSpec.tetrahedral(), GroupSpec.octahedral(), GroupSpec.icosahedral()]
)
# the groups whose `correspondence` is quick: C:2-8, D:2-6, T, O and I
FORM_SPECS = ORDER_SPECS[:7] + ORDER_SPECS[59:64] + ORDER_SPECS[-3:]


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=str)
def test_one_zeta_order_serves_the_forms_and_the_character_sums(spec, monkeypatch):
    # the tables alone, without the McKay graph of `correspondence`
    g = grouprep._build_family(spec)[0]
    n = g.table[0][0].n
    # every root of unity the forms need: i, zeta_|G| and zeta_2q per class turn p/q
    needed = math.lcm(4, g.order, 2 * n, *(2 * c.turn.denominator for c in g.classes))
    assert needed == 2 * n
    if spec in FORM_SPECS:
        assert crc._exact_forms(spec)[0] == 2 * n
        orders = []
        prime = modular.prime
        monkeypatch.setattr(modular, "prime", lambda m, k: orders.append(m) or prime(m, k))
        grouprep._residue_map(n, 1)
        assert set(orders) == {2 * n}


def test_sigma3_odd_flip_coefficients_vanish():
    pot = orbifold_potential(D5, 5)
    flip = pot.class_labels.index("s")
    # the flip direction appears with even exponent only
    for key in pot.coefficients:
        assert key[flip] % 2 == 0


def test_potential_coefficient_rejects_unknown_classes():
    pot = orbifold_potential(D5, 3)
    with pytest.raises(ConfigurationError):
        pot.coefficient({"c9": 1})


def test_potential_needs_degree_three():
    with pytest.raises(ConfigurationError):
        orbifold_potential(D5, 2)


def test_potential_jsonable_matches_schema():
    rows = orbifold_potential(D5, 4).jsonable()
    jsonschema.validate(rows, CRC_REPORT)
    degrees = [r["degree"] for r in rows]
    assert degrees == sorted(degrees)
    by_guess = {r["rational_guess"] for r in rows}
    assert "1/2" in by_guess
    # every coefficient is exact, so a missing rational is malformed
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate([rows[0] | {"rational_guess": None}], CRC_REPORT)


# -- the one-parameter series ------------------------------------------------


def closed_form(u):
    return mp.tan(u / mp.sqrt(12) + mp.pi / 3) / mp.sqrt(3)


def test_b_series_matches_closed_form():
    with mp.workdps(80):
        got = b_series(D5, 8)
        want = mp.taylor(closed_form, 0, 7)
        for g, w in zip(got, want):
            assert abs(g - w) < mp.mpf("1e-60")


def test_b_series_normalization():
    with mp.workdps(80):
        got = b_series(D5, 2)
        assert abs(got[0] - 1) < mp.mpf("1e-60")
        assert abs(got[1] - mp.mpf(2) / 3) < mp.mpf("1e-60")


def test_b_series_is_the_exact_coefficients_rounded_once():
    # 2(j+1)(-1)^j times the coefficient of x_s^2 x_r1^(j+1), each converted
    # from its Fraction, so equal bit for bit at dps plus guard digits
    exact = [Fraction(1), Fraction(2, 3), Fraction(1, 3), Fraction(5, 27),
             Fraction(11, 108), Fraction(91, 1620)]
    got = b_series(D5, 6)
    with mp.workdps(DEFAULT_DPS + crc._GUARD):
        assert list(got) == [mp.mpf(c.numerator) / c.denominator for c in exact]


def test_b_series_is_dihedral_three_only():
    with pytest.raises(ConfigurationError):
        b_series(GroupSpec.cyclic(3), 4)
    with pytest.raises(ConfigurationError):
        b_series(D5, 0)


def test_b_series_partial_sums_approximate_the_partial():
    with mp.workdps(80):
        u = mp.mpf("0.1")
        direct = third_partial(D5, "s", "s", "r1", x={"r1": -u})
        coeffs = b_series(D5, 12)
        acc = mp.mpf(0)
        for j, c in enumerate(coeffs):
            acc += c * u ** j
        assert abs(acc - direct) < mp.mpf("1e-9")


# -- cross-method agreement ----------------------------------------------------


@pytest.mark.parametrize("spec", [D5, GroupSpec.dihedral(2)], ids=str)
def test_taylor_and_closed_formula_agree_at_origin(spec):
    pot = orbifold_potential(spec, 3)
    labels = pot.class_labels
    with mp.workdps(80):
        for triple in combinations_with_replacement(labels, 3):
            via_taylor = taylor_third_partial(pot, *triple)
            direct = third_partial(spec, *triple)
            assert abs(via_taylor - direct) < mp.mpf("1e-50"), triple


def test_taylor_third_partial_multiplicity_factor():
    pot = orbifold_potential(D5, 3)
    with mp.workdps(80):
        # coefficient 1/2 at x_s^2 x_r1 carries a 2! from the repeated index
        value = taylor_third_partial(pot, "s", "s", "r1")
        assert abs(value - 1) < mp.mpf("1e-50")


@pytest.mark.parametrize("spec", [D5, GroupSpec.tetrahedral()], ids=str)
def test_taylor_third_partial_ignores_the_callers_precision(spec):
    # at mpmath's default 15 digits the value is still the exact one rounded
    # at the potential's dps plus guard digits, e.g. 1/3 and 4/3 in full
    pot = orbifold_potential(spec, 3)
    n = len(pot.class_labels)
    for triple in combinations_with_replacement(range(n), 3):
        key = tuple(map(triple.count, range(n)))
        exact = pot.rationals.get(key, 0) * math.prod(map(math.factorial, key))
        with mp.workdps(pot.dps + crc._GUARD):
            want = mp.mpf(exact.numerator) / exact.denominator
        with mp.workdps(15):
            assert taylor_third_partial(pot, *triple) == want, triple


@pytest.mark.parametrize("spec", [
    D5,
    GroupSpec.dihedral(2),
    GroupSpec.cyclic(3),
    GroupSpec.cyclic(4),
    GroupSpec.tetrahedral(),
    GroupSpec.octahedral(),
    GroupSpec.icosahedral(),
    GroupSpec.dihedral(6),
    GroupSpec.cyclic(6),
    GroupSpec.cyclic(16),
    GroupSpec.dihedral(24),
], ids=str)
def test_resolution_route_consistency(spec):
    residual = crc_consistency(spec)
    assert isinstance(residual, Fraction) and residual == 0


def test_potential_coefficients_are_formed_from_the_rationals_on_first_access():
    potential = orbifold_potential(D5, 5, 40)
    assert "coefficients" not in vars(potential)
    with mp.workdps(50):
        expected = {key: mp.mpf(c.numerator) / c.denominator
                    for key, c in potential.rationals.items()}
    assert potential.coefficients == expected
    assert potential.coefficients is potential.coefficients


@pytest.mark.parametrize("spec", [D5, GroupSpec.cyclic(4)], ids=str)
def test_resolution_partials_are_real(spec):
    for value in resolution_third_partials(spec).values():
        assert value.imag == 0


@pytest.mark.parametrize("spec", [GroupSpec.tetrahedral(), GroupSpec.cyclic(6)], ids=str)
def test_resolution_partials_vanish_outside_the_selection_rule(spec):
    # the rule comes from group multiplication alone, the resolution side
    # from the classical cubic and the root series
    _, terms = crc._monomial_tree(spec, 3)
    allowed = {term[3] for term in terms}
    n = len(correspondence(spec).group.classes) - 1
    exact = crc._resolution_rationals(spec)
    outside = [t for t in exact if tuple(map(t.count, range(n))) not in allowed]
    assert outside
    assert all(exact[t] == 0 for t in outside)
    assert all(resolution_third_partials(spec)[t] == 0 for t in outside)


def test_resolution_witness_prime_rejects_a_corrupt_residue(monkeypatch):
    honest = crc._resolution_residues
    calls = []

    def counting(*args):
        calls.append(args[-2])
        return honest(*args)

    monkeypatch.setattr(crc, "_resolution_residues", counting)
    resolution_third_partials(D5)
    assert len(calls) == 1

    def corrupting(*args):
        out = honest(*args)
        p = args[-2]
        out[-1] = (out[-1] + p // _fill_primes(D5, p)[-1]) % p  # wrong modulo the witness alone
        return out

    monkeypatch.setattr(crc, "_resolution_residues", corrupting)
    with pytest.raises(InternalConsistencyError):
        resolution_third_partials(D5)


def test_geometric_series_identity():
    # w/(1-w) = -1/2 - (i/2) tan(theta/2 + pi/2) for w = exp(i theta)
    with mp.workdps(60):
        rng_state = mp.mpf("0.123456789")
        for k in range(100):
            theta = mp.pi * (2 * mp.frac(rng_state * (k + 1) * mp.sqrt(2)) - 1)
            if abs(theta) < mp.mpf("1e-3"):
                continue
            w = mp.expj(theta)
            lhs = w / (1 - w)
            rhs = -mp.mpf(1) / 2 - mp.mpc(0, 1) / 2 * mp.tan(theta / 2 + mp.pi / 2)
            assert abs(lhs - rhs) < mp.mpf("1e-45")


@pytest.mark.parametrize("k", [3, 5])
def test_cyclic_potential_inverse_class_symmetry(k):
    spec = GroupSpec.cyclic(k)
    pot = orbifold_potential(spec, 4)
    labels = pot.class_labels
    assert labels == tuple(f"g{j}" for j in range(1, k))
    flip = {j: k - j for j in range(1, k)}
    with mp.workdps(80):
        for key, value in pot.coefficients.items():
            flipped = [0] * len(key)
            for pos, e in enumerate(key):
                flipped[flip[pos + 1] - 1] = e
            mirror = pot.coefficients.get(tuple(flipped), mp.mpf(0))
            assert abs(value - mirror) < mp.mpf("1e-50")


def test_sigma3_denominators_stay_small():
    # every coefficient through degree 5 is rational over 2^4 * 3^5
    pot = orbifold_potential(D5, 5)
    for row in pot.jsonable():
        guess = row["rational_guess"]
        assert guess is not None
        assert 3888 % Fraction(guess).denominator == 0


# -- derivative tower ----------------------------------------------------------


def test_h_third_derivative_closed_form():
    with mp.workdps(80):
        for s in (mp.mpf("0.3"), mp.mpf("-1.1")):
            want = mp.tan(-s / 2) / 2
            assert abs(h_derivative(3, s) - want) < mp.mpf("1e-60")


def test_h_higher_derivatives_differentiate():
    with mp.workdps(80):
        for n in (3, 4, 5):
            for s in (mp.mpf("0.4"), mp.mpf("1.2")):
                got = h_derivative(n + 1, s)
                want = mp.diff(lambda t: h_derivative(n, t, dps=100), s)
                assert abs(got - want) < mp.mpf("1e-25")


def test_h_derivative_guards():
    with pytest.raises(ConfigurationError):
        h_derivative(2, 0.5)
    with mp.workdps(80):
        with pytest.raises(PoleError):
            h_derivative(3, mp.pi)


def test_h_derivative_builds_a_cold_tower_without_recursion(monkeypatch):
    monkeypatch.setattr(crc, "_h_tower", crc._h_tower[:1])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        value = h_derivative(150, 1, dps=20)
    finally:
        sys.setrecursionlimit(limit)
    assert len(crc._h_tower) == 148
    assert mp.isfinite(value) and value != 0


def test_pole_guards_accept_ordinary_points_at_low_precision():
    # the CLI accepts --precision 10; ordinary points must evaluate there
    assert abs(h_derivative(3, 1, dps=10) - h_derivative(3, 1, dps=30)) < mp.mpf("1e-8")
    x = {"r1": "0.1"}
    low = third_partial(D5, "s", "s", "r1", x, dps=10)
    assert abs(low - third_partial(D5, "s", "s", "r1", x, dps=30)) < mp.mpf("1e-8")
    with pytest.raises(PoleError):
        h_derivative(3, mp.pi, dps=10)


def _significant_digits(text: str) -> int:
    mantissa = text.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0").rstrip("0"))


@pytest.mark.parametrize("dps, spec", [(10, D5), (10, GroupSpec.tetrahedral()),
                                       (10, GroupSpec.cyclic(5)), (64, D5)])
def test_coefficients_print_at_most_the_working_digits(dps, spec):
    # printing 30 digits at --precision 10 showed the rounding noise of the
    # guard digits as data; the default precision still prints 30
    entries = orbifold_potential(spec, 5, dps).jsonable()
    digits = [_significant_digits(entry["coefficient"]) for entry in entries]
    assert max(digits) <= min(30, dps)
    if dps > 30:
        assert max(digits) == 30


@pytest.mark.parametrize("spec", [
    GroupSpec.cyclic(5), GroupSpec.cyclic(8), D5, GroupSpec.dihedral(6),
    GroupSpec.tetrahedral(), GroupSpec.octahedral(), GroupSpec.icosahedral(),
], ids=str)
def test_linear_forms_match_the_square_root_definition(spec):
    # the definition the exact table replaced: (|C|/|G|) sqrt(3 - Re chi_V(C)) chi_s(C)
    corr = correspondence(spec)
    g = corr.group
    system = linear_forms(spec)
    with mp.workdps(DEFAULT_DPS + crc._GUARD):
        for s, form in zip(corr.slots, system.forms):
            for c, chi_v, chi, got in zip(g.classes[1:], g.chi_v[1:], g.table[s][1:],
                                          form.coefficients):
                want = (Fraction(c.size, g.order) * mp.sqrt(3 - crc.as_mpc(chi_v).real)
                        * crc.as_mpc(chi))
                assert abs(got - want) < mp.mpf(10) ** -60, (s, c.label)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_points_are_refused(bad):
    with pytest.raises(ConfigurationError):
        h_derivative(3, bad)
    with pytest.raises(ConfigurationError):
        third_partial(D5, 0, 0, 1, x={"s": bad})


def test_third_partial_pole_detection():
    system = linear_forms(D5)
    r1 = system.class_labels.index("r1")
    l_r1 = system.forms[1].coefficients[r1].real
    with mp.workdps(100):
        # drive the rotation-only root argument onto a tan pole
        x_pole = 4 * mp.pi / (3 * l_r1)
        with pytest.raises(PoleError):
            third_partial(D5, "s", "s", "r1", x={"r1": x_pole})


@pytest.mark.parametrize("spec", [
    D5, GroupSpec.tetrahedral(), GroupSpec.cyclic(6),
], ids=str)
def test_third_partial_weights_each_class_by_its_fiber(spec):
    """The closed formula summed over curve classes, each weighted by its
    fiber, against the same formula summed over every positive root."""
    corr = correspondence(spec)
    order = corr.group.order
    dims = [corr.group.irreps[s].dim for s in corr.slots]
    system = linear_forms(spec)
    labels = system.class_labels
    x = {labels[-1]: "0.1"}
    with mp.workdps(DEFAULT_DPS + crc._GUARD):
        xvec = [mp.mpf(x.get(lbl, 0)) for lbl in labels]
        roots = []
        for alpha in root_system(corr.ade).positive_roots:
            beta = [alpha[p] for p in corr.slot_node]
            if not any(beta):
                continue
            l = [mp.fsum(b * form.coefficients[c] for b, form in zip(beta, system.forms))
                 for c in range(len(labels))]
            theta = (2 * mp.pi * sum(b * d for b, d in zip(beta, dims)) / order
                     + mp.fsum(xv * lc for xv, lc in zip(xvec, l)))
            roots.append((l, mp.tan(theta / 2 + mp.pi / 2)))
        for i, j, k in combinations_with_replacement(range(len(labels)), 3):
            want = -mp.fsum(l[i] * l[j] * l[k] * t for l, t in roots) / 4
            got = third_partial(spec, i, j, k, x=x)
            assert abs(got - want.real) < mp.mpf(10) ** -60, (i, j, k)


def test_third_partial_validates_classes():
    with pytest.raises(ConfigurationError):
        third_partial(D5, "s", "s", "nope")
    with pytest.raises(ConfigurationError):
        third_partial(D5, 0, 0, 9)
    with pytest.raises(ConfigurationError):
        third_partial(D5, "s", "s", "r1", x={"bogus": 1})


# -- substitution data ---------------------------------------------------------


def test_change_of_variables_frozen_for_sigma3():
    cov = change_of_variables(D5)
    assert cov.irrep_labels == ("sgn", "rho1")
    assert cov.class_labels == ("r1", "s")
    assert cov.q_turns == (Fraction(1, 6), Fraction(1, 3))
    with mp.workdps(80):
        for row, form in zip(cov.y_coefficients, linear_forms(D5).forms):
            for y, l in zip(row, form.coefficients):
                assert abs(y - mp.mpc(0, 1) * l) < mp.mpf("1e-60")


def test_rational_guess_accepts_exact_and_rejects_irrational():
    with mp.workdps(64):
        third = mp.mpf(1) / 3
        assert rational_guess(third) == Fraction(1, 3)
        assert rational_guess(mp.sqrt(2)) is None


def test_rational_guess_reads_the_exact_binary_value():
    # past 2^53 a float pass drops the 1/2, and past 1e308 it overflows
    assert rational_guess("1152921504606846976.5") == Fraction(2 ** 61 + 1, 2)
    assert rational_guess(10 ** 40) == 10 ** 40
    assert rational_guess(10 ** 400) is None


def test_rational_guess_refuses_values_coarser_than_its_tolerance():
    # at 74 digits one unit in the last place of pi * 10^80 is about 10^6,
    # so being within 1e-20 of an integer says nothing
    with mp.workdps(DEFAULT_DPS + crc._GUARD):
        assert rational_guess(mp.pi * 10 ** 80) is None
        # 10^n + 1/4 is exact at 74 digits; its last place is finer than
        # 1e-20 at n = 50 and coarser at n = 60
        assert rational_guess(mp.mpf(10) ** 50 + 0.25) == 10 ** 50 + Fraction(1, 4)
        assert rational_guess(mp.mpf(10) ** 60 + 0.25) is None


# -- the per-root kernels against the per-monomial loops they replaced ---------


def _reference_exponent_vectors(n_vars, total):
    if n_vars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _reference_exponent_vectors(n_vars - 1, total - head):
            yield (head,) + rest


def _reference_potential(spec, degree, dps):
    """One mpc term per (curve class, monomial), weighted by the class's
    fiber, powers and factorials each time."""
    system, roots = numeric._root_forms(spec, dps)
    order = correspondence(spec).group.order
    n_vars = len(system.class_labels)
    with mp.workdps(dps + crc._GUARD):
        factorials = [mp.mpf(1)]
        for i in range(1, degree + 1):
            factorials.append(factorials[-1] * i)
        acc = {}
        for root in roots:
            t = mp.cot(mp.pi * mp.mpf(root.dim_sum) / order)
            for n in range(3, degree + 1):
                hn = numeric._poly_eval(crc._h_poly(n), t)
                for key in _reference_exponent_vectors(n_vars, n):
                    term = root.multiplicity * hn / 2
                    for e, l in zip(key, root.coefficients):
                        if e:
                            term = term * l ** e / factorials[e]
                    if term != 0:
                        acc[key] = acc.get(key, mp.mpc(0)) + term
        tol = mp.mpf(10) ** (-(dps // 2))
        return {
            key: value.real for key, value in acc.items() if abs(value.real) > tol
        }


def _reference_resolution_partials(spec, dps):
    """The cubic contracted with L over all (a, b, c) at once, per triple."""
    system, roots = numeric._root_forms(spec, dps)
    cubic = classical_potential(spec)
    order = correspondence(spec).group.order
    n = len(system.class_labels)
    r = len(system.forms)
    with mp.workdps(dps + crc._GUARD):
        i3 = mp.mpc(0, -1)
        out = {}
        for triple in combinations_with_replacement(range(n), 3):
            total = mp.mpc(0)
            for a in range(r):
                la = system.forms[a].coefficients[triple[0]]
                for b in range(r):
                    lb = system.forms[b].coefficients[triple[1]]
                    for c in range(r):
                        lc = system.forms[c].coefficients[triple[2]]
                        w = cubic.cubic[a][b][c]
                        if w:
                            total += mp.mpf(w.numerator) / w.denominator * la * lb * lc
            total = i3 * total
            for root in roots:
                w = mp.expjpi(2 * mp.mpf(root.dim_sum) / order)
                prod = mp.mpc(1)
                for i in triple:
                    prod = prod * root.coefficients[i]
                total += root.multiplicity * i3 / 2 * prod * w / (1 - w)
            out[triple] = total
    return out


@pytest.mark.parametrize("spec", [
    D5, GroupSpec.dihedral(4), GroupSpec.tetrahedral(), GroupSpec.cyclic(5),
], ids=str)
def test_potential_matches_per_monomial_reference(spec):
    dps = 64
    got = orbifold_potential(spec, 5, dps).coefficients
    want = _reference_potential(spec, 5, dps)
    assert set(got) == set(want)
    with mp.workdps(dps + crc._GUARD):
        for key, value in want.items():
            assert abs(got[key] - value) < mp.mpf(10) ** -dps, key


@pytest.mark.parametrize("spec", [
    D5, GroupSpec.cyclic(4), GroupSpec.tetrahedral(),
], ids=str)
def test_resolution_partials_match_full_contraction_reference(spec):
    dps = 64
    got = resolution_third_partials(spec, dps)
    want = _reference_resolution_partials(spec, dps)
    assert list(got) == list(want)
    with mp.workdps(dps + crc._GUARD):
        for triple, value in want.items():
            assert abs(got[triple] - value) < mp.mpf(10) ** -dps, triple


def test_root_forms_built_once_per_group_and_precision(monkeypatch):
    calls = []
    build = numeric.linear_forms

    def counting_linear_forms(spec, dps=crc.DEFAULT_DPS):
        calls.append((spec, dps))
        return build(spec, dps)

    spec = GroupSpec.dihedral(2)
    monkeypatch.setattr(numeric, "linear_forms", counting_linear_forms)
    numeric._root_forms.cache_clear()
    try:
        orbifold_potential(spec, 4, 40)
        crc_consistency(spec, 40)
        third_partial(spec, 0, 1, 2, dps=40)
        assert calls == [(spec, 40)]
        third_partial(spec, 0, 1, 2, dps=50)
        assert calls == [(spec, 40), (spec, 50)]
    finally:
        numeric._root_forms.cache_clear()


# -- the selection-rule tree against the dense tree it replaced ----------------


def _dense_monomial_tree(n_vars, degree):
    """Every exponent vector of total degree <= degree as a prefix tree, in
    the (levels, terms) layout of `crc._monomial_tree`."""
    levels = []
    keys = [()]
    used = [0]
    for _ in range(n_vars - 1):
        level = [(p, e) for p, u in enumerate(used) for e in range(degree - u + 1)]
        keys = [keys[p] + (e,) for p, e in level]
        used = [used[p] + e for p, e in level]
        levels.append(level)
    terms = [
        (p, u, e, keys[p] + (e,))
        for p, u in enumerate(used)
        for e in range(max(3 - u, 0), degree - u + 1)
    ]
    terms.sort(key=lambda term: (term[1] + term[2], term[3]))
    return levels, terms


def _filtered_monomial_tree(products, degree):
    """`crc._monomial_tree` before it pruned prefixes: every exponent vector
    of total degree <= degree is grown with its class mask, then filtered."""
    @cache
    def times(mask, c):
        return reduce(or_, (row for k, row in enumerate(products[c]) if mask >> k & 1), 0)

    vectors = [((), 0, 1)]
    for c in range(1, len(products)):
        grown = []
        for key, used, mask in vectors:
            for e in range(degree - used + 1):
                grown.append((key + (e,), used + e, mask))
                mask = times(mask, c)
        vectors = grown
    allowed = [key for key, used, mask in vectors if used >= 3 and mask & 1]
    levels = []
    index = {(): 0}
    for i in range(1, len(products) - 1):
        prefixes = dict.fromkeys(key[:i] for key in allowed)
        levels.append([(index[p[:-1]], p[-1]) for p in prefixes])
        index = {p: j for j, p in enumerate(prefixes)}
    terms = [(index[key[:-1]], sum(key[:-1]), key[-1], key) for key in allowed]
    terms.sort(key=lambda term: (term[1] + term[2], term[3]))
    return levels, terms


TREE_GROUPS = (
    [GroupSpec.cyclic(k) for k in (2, 3, 4, 5, 6, 7, 8, 16)]
    + [GroupSpec.dihedral(k) for k in (2, 3, 4, 5, 6, 24)]
    + [GroupSpec.tetrahedral(), GroupSpec.octahedral(), GroupSpec.icosahedral()]
)


@pytest.mark.parametrize("spec", TREE_GROUPS, ids=str)
def test_pruned_tree_equals_the_filtered_enumeration(spec):
    for degree in range(3, 8):
        assert crc._monomial_tree(spec, degree) == _filtered_monomial_tree(
            crc._class_products(spec), degree)


@functools.cache
def _dense_potential(spec, degree, dps):
    """The float reference: every vector filled per root in mpf with the
    rows, weights and multiply order `orbifold_potential` used before it
    became exact, returned before any magnitude filter (real parts, the
    imaginary parts checked)."""
    system, roots = numeric._root_forms(spec, dps)
    order = correspondence(spec).group.order
    levels, terms = _dense_monomial_tree(len(system.class_labels), degree)
    with mp.workdps(dps + crc._GUARD):
        acc = [mp.mpf(0)] * len(terms)
        for root in roots:
            t = mp.cot(mp.pi * mp.mpf(root.dim_sum) / order)
            half_h = [None] * 3 + [
                root.multiplicity * numeric._poly_eval(crc._h_poly(n), t) / 2
                for n in range(3, degree + 1)
            ]
            rows = []
            for l in root.coefficients:
                if l.imag == 0:
                    l = l.real
                row = [mp.mpf(1)]
                for e in range(1, degree + 1):
                    row.append(row[-1] * l / e)
                rows.append(row)
            prods = [mp.mpf(1)]
            for level, row in zip(levels, rows):
                prods = [prods[p] * row[e] if e else prods[p] for p, e in level]
            last = rows[-1]
            weighted = [
                [
                    last[e] * half_h[u + e] if u + e >= 3 else None
                    for e in range(degree - u + 1)
                ]
                for u in range(degree + 1)
            ]
            acc = [
                a + prods[p] * weighted[u][e] for a, (p, u, e, _) in zip(acc, terms)
            ]
        tol = mp.mpf(10) ** (-(dps // 2))
        out = {}
        for (_, _, _, key), value in zip(terms, acc):
            if isinstance(value, mp.mpc):
                assert abs(value.imag) <= tol, key
                value = value.real
            out[key] = value
    return out


DENSE_CASES = [
    (D5, 6),
    (GroupSpec.dihedral(6), 6),
    (GroupSpec.tetrahedral(), 6),
    (GroupSpec.octahedral(), 6),
    (GroupSpec.cyclic(6), 6),
    (GroupSpec.cyclic(8), 5),
]


# the larger groups only at degree 3: the exact fill is cheap there, the
# float reference of the two tests below is not
@pytest.mark.parametrize("spec, degree", DENSE_CASES + [
    (GroupSpec.icosahedral(), 3), (GroupSpec.cyclic(16), 3), (GroupSpec.dihedral(24), 3),
], ids=lambda c: str(c))
def test_potential_equals_the_dense_tree_exactly(spec, degree):
    # the same F_p fill and lift over every vector: the same Fractions on
    # the vectors the rule allows, exactly 0 on every other one
    pot = orbifold_potential(spec, degree)
    levels, terms = _dense_monomial_tree(len(pot.class_labels), degree)
    dense = dict(zip(
        (term[3] for term in terms), crc._exact_coefficients(spec, levels, terms, degree)
    ))
    _, allowed = crc._monomial_tree(spec, degree)
    allowed = {term[3] for term in allowed}
    assert list(pot.rationals.items()) == [
        (key, value) for key, value in dense.items() if key in allowed and value
    ]
    assert all(value == 0 for key, value in dense.items() if key not in allowed)


@pytest.mark.parametrize("spec, degree", DENSE_CASES, ids=lambda c: str(c))
def test_dense_float_reference_matches_the_exact_coefficients(spec, degree):
    dps = 64
    exact = orbifold_potential(spec, degree, dps).rationals
    dense = _dense_potential(spec, degree, dps)
    tol = mp.mpf(10) ** (-(dps // 2))
    assert {key for key, value in dense.items() if abs(value) > tol} == set(exact)
    with mp.workdps(dps + crc._GUARD):
        for key, value in dense.items():
            want = exact.get(key, Fraction(0))
            err = abs(value - mp.mpf(want.numerator) / want.denominator)
            assert err < mp.mpf(10) ** -dps, key


@pytest.mark.parametrize("spec, degree", DENSE_CASES, ids=lambda c: str(c))
def test_dense_coefficients_outside_the_selection_rule_vanish(spec, degree):
    # the rule comes from group multiplication alone, the dense values from
    # the roots and the tangent series, so this is evidence for the rule
    dps = 64
    _, terms = crc._monomial_tree(spec, degree)
    allowed = {term[3] for term in terms}
    dense = _dense_potential(spec, degree, dps)
    assert allowed < set(dense)
    outside = [abs(value) for key, value in dense.items() if key not in allowed]
    assert max(outside) < mp.mpf(10) ** -dps


def test_class_constants_built_once_per_group(monkeypatch):
    calls = []
    build = crc.class_multiplication

    def counting_class_multiplication(model):
        calls.append(model.spec)
        return build(model)

    spec = GroupSpec.dihedral(2)
    monkeypatch.setattr(crc, "class_multiplication", counting_class_multiplication)
    crc._class_products.cache_clear()
    try:
        orbifold_potential(spec, 4, 40)
        orbifold_potential(spec, 5, 50)
        assert calls == [spec]
    finally:
        crc._class_products.cache_clear()

