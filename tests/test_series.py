"""Exact series ring: arithmetic laws, exp/log, and the expansion library."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmckay.errors import ConfigurationError, InternalConsistencyError
from qmckay.series import (
    MultiSeries,
    Truncation,
    macmahon_exponent,
    macmahon_factor,
    sin_power_coefficients,
    sin_power_expansion,
    sin_power_series,
)

VARS = ("q1", "q2", "Q")
TR = Truncation(q_total=6, big_q=4)


def mono(exponents, coeff=1, variables=VARS, truncation=TR):
    return MultiSeries.monomial(variables, truncation, exponents, coeff)


# -- construction and validation -------------------------------------------


def test_truncation_rejects_negative_caps():
    with pytest.raises(ConfigurationError):
        Truncation(q_total=-1)
    with pytest.raises(ConfigurationError):
        Truncation(big_q=-2)


def test_duplicate_variables_rejected():
    with pytest.raises(ConfigurationError):
        MultiSeries.zero(("q1", "q1"), TR)


def test_exponent_arity_checked():
    with pytest.raises(ConfigurationError):
        MultiSeries.from_terms(VARS, TR, {(1, 0): 1})


def test_float_coefficients_rejected():
    with pytest.raises(ConfigurationError):
        mono({"q1": 1}, coeff=0.5)


def test_unknown_monomial_variable_rejected():
    with pytest.raises(ConfigurationError):
        mono({"q9": 1})


def test_zero_coefficients_dropped():
    s = MultiSeries.from_terms(VARS, TR, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert len(s) == 1
    assert s.coefficient({"q2": 1}) == 2


def test_negative_q_exponent_raises():
    with pytest.raises(ConfigurationError):
        MultiSeries.from_terms(VARS, TR, {(-1, 0, 0): 1})


def test_lambda_floor_is_minus_two():
    tr = Truncation(lam=4)
    ok = MultiSeries.from_terms(("lam",), tr, {(-2,): 1})
    assert ok.coefficient({"lam": -2}) == 1
    with pytest.raises(ConfigurationError):
        MultiSeries.from_terms(("lam",), tr, {(-3,): 1})


def test_truncation_clips_high_degrees():
    q = mono({"q1": 1})
    assert (q ** 7).is_zero()
    assert not (q ** 6).is_zero()
    big = mono({"Q": 1})
    assert (big ** 5).is_zero()


# -- exp and log -------------------------------------------------------------


def test_log_one_plus_q_is_mercator():
    tr = Truncation(q_total=8)
    q = MultiSeries.monomial(("q1",), tr, {"q1": 1})
    s = (MultiSeries.one(("q1",), tr) + q).log()
    for n in range(1, 9):
        assert s.coefficient({"q1": n}) == Fraction((-1) ** (n + 1), n)
    assert s.constant_term() == 0


def test_exp_q_has_inverse_factorials():
    tr = Truncation(q_total=8)
    q = MultiSeries.monomial(("q1",), tr, {"q1": 1})
    e = q.exp()
    for n in range(0, 9):
        assert e.coefficient({"q1": n}) == Fraction(1, math.factorial(n))


def test_exp_requires_zero_constant_term():
    with pytest.raises(ConfigurationError):
        MultiSeries.one(VARS, TR).exp()


def test_log_requires_unit_constant_term():
    with pytest.raises(ConfigurationError):
        mono({"q1": 1}).log()


def test_exp_requires_a_controlling_cap():
    q = MultiSeries.monomial(("q1",), Truncation(), {"q1": 1})
    with pytest.raises(ConfigurationError):
        q.exp()


def test_exp_log_reject_negative_lam_exponents():
    tr = Truncation(q_total=2, lam=2)
    arg = MultiSeries.from_terms(("q1", "lam"), tr, {(1, -1): 1})
    with pytest.raises(ConfigurationError):
        arg.exp()
    with pytest.raises(ConfigurationError):
        (MultiSeries.one(("q1", "lam"), tr) + arg).log()


def test_log_requires_a_controlling_cap():
    tr = Truncation(q_total=2)
    arg = MultiSeries.from_terms(("q1", "Q"), tr, {(0, 0): 1, (0, 1): 1})
    with pytest.raises(ConfigurationError):
        arg.log()


def test_product_below_lambda_floor_raises():
    tr = Truncation(q_total=2, lam=2)
    a = MultiSeries.from_terms(("q1", "lam"), tr, {(0, -2): 1, (2, -2): 1})
    b = MultiSeries.from_terms(("q1", "lam"), tr, {(1, -1): 1})
    with pytest.raises(InternalConsistencyError):
        a * b
    # the floor is checked even where the q cap drops every product
    with pytest.raises(InternalConsistencyError):
        MultiSeries.from_terms(("q1", "lam"), tr, {(2, -2): 1}) * b


def test_pow_rational_central_binomials():
    # (1 - q)^(-1/2) = sum C(2n, n) (q/4)^n
    tr = Truncation(q_total=8)
    one = MultiSeries.one(("q1",), tr)
    base = one - MultiSeries.monomial(("q1",), tr, {"q1": 1})
    s = base.pow_rational(Fraction(-1, 2))
    for n in range(0, 9):
        assert s.coefficient({"q1": n}) == Fraction(math.comb(2 * n, n), 4 ** n)


def test_pow_rational_half_squares_back():
    tr = Truncation(q_total=8)
    one = MultiSeries.one(("q1",), tr)
    base = one - MultiSeries.monomial(("q1",), tr, {"q1": 1})
    root = base.pow_rational(Fraction(1, 2))
    assert root * root == base


# -- MacMahon factors --------------------------------------------------------


def literal_macmahon(beta, weight_sign=1):
    """prod_m (1 - q^beta Q^m)^(m*weight_sign) built term by term."""
    one = MultiSeries.one(VARS, TR)
    acc = one
    for m in range(1, TR.big_q + 1):
        factor = one - mono(dict(beta, Q=m))
        if weight_sign < 0:
            factor = factor.pow_rational(Fraction(-1))
        acc = acc * factor ** m
    return acc


def test_macmahon_factor_matches_literal_product():
    beta = {"q1": 1}
    assert macmahon_factor(VARS, TR, beta, 1) == literal_macmahon(beta)
    assert macmahon_factor(VARS, TR, beta, -1) == literal_macmahon(beta, -1)


def test_macmahon_factor_compound_class():
    beta = {"q1": 1, "q2": 2}
    assert macmahon_factor(VARS, TR, beta, 1) == literal_macmahon(beta)


@pytest.mark.parametrize("w1, w2", [
    (1, 1),
    (1, -1),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 2), 1),
])
def test_macmahon_weight_additivity(w1, w2):
    beta = {"q2": 1}
    lhs = macmahon_factor(VARS, TR, beta, w1) * macmahon_factor(VARS, TR, beta, w2)
    rhs = macmahon_factor(VARS, TR, beta, Fraction(w1) + Fraction(w2))
    assert lhs == rhs


def test_macmahon_exponent_is_minus_log():
    beta = {"q1": 1}
    series = macmahon_factor(VARS, TR, beta, 1)
    assert series.log() == -macmahon_exponent(VARS, TR, beta)


def test_macmahon_requires_caps_and_q_variable():
    with pytest.raises(ConfigurationError):
        macmahon_exponent(VARS, Truncation(q_total=4), {"q1": 1})
    with pytest.raises(ConfigurationError):
        macmahon_exponent(("q1", "q2"), TR, {"q1": 1})
    with pytest.raises(ConfigurationError):
        macmahon_exponent(VARS, TR, {})


# -- sine kernels ------------------------------------------------------------

INVERSE_SQUARE = {-2: Fraction(1), 0: Fraction(1, 12),
                  2: Fraction(1, 240), 4: Fraction(1, 6048)}
SQUARE = {2: Fraction(1), 4: Fraction(-1, 12), 6: Fraction(1, 360)}


def test_inverse_sine_square_coefficients():
    assert sin_power_coefficients(-2, 1, 4) == INVERSE_SQUARE


def test_sine_square_coefficients():
    assert sin_power_coefficients(2, 1, 6) == SQUARE


@pytest.mark.parametrize("power", [-2, 2])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_sine_coefficients_scale_by_degree(power, d):
    base = sin_power_coefficients(power, 1, 6)
    scaled = sin_power_coefficients(power, d, 6)
    assert scaled == {e: c * Fraction(d) ** e for e, c in base.items()}


def test_cover_kernel_leading_terms():
    # (1/d)(2 sin(d lam/2))^(2g-2): lam^m coefficient is c_m * d^(m-1)
    for d in (1, 2, 3):
        k0 = sin_power_expansion(d, 0, 4)
        for m, c in INVERSE_SQUARE.items():
            assert k0.coefficient({"lam": m}) == c * Fraction(d) ** (m - 1)
        k1 = sin_power_expansion(d, 1, 4)
        assert k1 == MultiSeries.from_terms(
            ("lam",), Truncation(lam=4), {(0,): Fraction(1, d)})


def test_cover_kernel_genus_two():
    k2 = sin_power_expansion(1, 2, 6)
    assert {key[0]: c for key, c in k2.items()} == SQUARE


def test_sine_expansion_validation():
    with pytest.raises(ConfigurationError):
        sin_power_expansion(0, 0, 4)
    with pytest.raises(ConfigurationError):
        sin_power_expansion(1, -1, 4)
    with pytest.raises(ConfigurationError):
        sin_power_expansion(1, 0, 3)
    with pytest.raises(ConfigurationError):
        sin_power_series(("lam",), Truncation(lam=4), -3, 1)


# -- presentation ------------------------------------------------------------


def test_lambda_slices_split_by_exponent():
    tr = Truncation(q_total=2, lam=2)
    s = MultiSeries.from_terms(("q1", "lam"), tr,
                               {(1, -2): 3, (0, 0): 1, (2, 0): 5})
    slices = s.lambda_slices()
    assert sorted(slices) == [-2, 0]
    assert slices[-2].coefficient({"q1": 1}) == 3
    assert slices[0].coefficient({"q1": 2}) == 5


def test_terms_jsonable_graded_lex_order():
    s = MultiSeries.from_terms(VARS, TR, {
        (2, 0, 0): 1, (0, 1, 0): Fraction(-1, 2), (1, 1, 0): 3})
    rows = s.terms_jsonable()
    assert [r["exponents"] for r in rows] == [
        {"q2": 1}, {"q1": 1, "q2": 1}, {"q1": 2}]
    assert rows[0]["numerator"] == "-1"
    assert rows[0]["denominator"] == "2"


def test_format_text_readable():
    s = MultiSeries.one(VARS, TR) - mono({"q1": 1, "Q": 2})
    assert s.format_text() == "1 - q1*Q^2"


# -- packed keys ---------------------------------------------------------------


def test_coefficient_rejects_unknown_variables():
    s = MultiSeries.one(VARS, TR).scale(3) + mono({"q1": 1, "Q": 1}, 5)
    with pytest.raises(ConfigurationError):
        s.coefficient({"q9": 1})
    assert s.coefficient({}) == 3


def test_coefficient_past_a_field_is_zero_not_aliased():
    tr = Truncation(q_total=2, big_q=2, lam=2)
    variables = ("q1", "q2", "Q", "lam")
    s = MultiSeries.from_terms(variables, tr, {
        (0, 0, 0, -2): 1, (0, 1, 0, 0): 2, (0, 0, 1, 0): 3, (1, 0, 0, 1): 4})
    assert s.coefficient({"q1": 5}) == 0
    assert s.coefficient({"q1": 4}) == 0  # q1 = 4 would carry into q2
    assert s.coefficient({"q1": 3, "q2": 1}) == 0
    assert s.coefficient({"Q": 4}) == 0  # Q = 4 would carry into lam
    assert s.coefficient({"q1": -1}) == 0
    assert s.coefficient({"lam": -3}) == 0
    assert s.coefficient({"lam": 3}) == 0
    assert s.coefficient({"lam": -2}) == 1
    assert s.coefficient({"q2": 1}) == 2
    # same grades and same packed int as q3 under 2-bit fields: -4 + 5*4 == 16
    t = MultiSeries.from_terms(("q1", "q2", "q3"), Truncation(q_total=3), {(0, 0, 1): 7})
    assert t.coefficient({"q3": 1}) == 7
    assert t.coefficient({"q1": -4, "q2": 5}) == 0


def test_uncapped_direction_outgrows_the_cap_widths():
    tr = Truncation(q_total=2)
    one = MultiSeries.one(("q1", "Q"), tr)
    s = (one + MultiSeries.monomial(("q1", "Q"), tr, {"Q": 1})) ** 40
    assert len(s) == 41
    for k in range(41):
        assert s.coefficient({"Q": k}) == math.comb(40, k)
    assert s.coefficient({"Q": 41}) == 0
    assert s * mono({"q1": 1}, variables=("q1", "Q"), truncation=tr) == \
        MultiSeries.from_terms(("q1", "Q"), tr,
                               {(1, k): math.comb(40, k) for k in range(41)})


def test_lambda_at_the_floor_survives_and_products_still_raise():
    tr = Truncation(q_total=2, lam=2)
    a = MultiSeries.from_terms(("q1", "lam"), tr, {(1, -2): Fraction(1, 3), (0, 0): 1})
    assert a.coefficient({"q1": 1, "lam": -2}) == Fraction(1, 3)
    b = MultiSeries.from_terms(("q1", "lam"), tr, {(0, 0): 1, (1, 0): 2})
    assert (a * b).coefficient({"q1": 2, "lam": -2}) == Fraction(2, 3)
    with pytest.raises(InternalConsistencyError):
        a * MultiSeries.from_terms(("q1", "lam"), tr, {(0, -1): 1})


def test_keys_exactly_at_each_cap():
    tr = Truncation(q_total=3, big_q=2, lam=4)
    variables = ("q1", "q2", "Q", "lam")
    top = {(3, 0, 0, 0): 1, (0, 3, 0, 0): 2, (1, 2, 2, 4): 3, (0, 0, 2, 0): 4}
    s = MultiSeries.from_terms(variables, tr, top)
    assert dict(s.items()) == top
    assert s.coefficient({"q1": 1, "q2": 2, "Q": 2, "lam": 4}) == 3
    one = MultiSeries.one(variables, tr)
    assert s * one == s
    q1 = MultiSeries.monomial(variables, tr, {"q1": 1})
    assert dict((s * q1).items()) == {(1, 0, 2, 0): 4}


def test_product_equals_and_hashes_as_its_terms():
    a = mono({"q1": 1}, Fraction(1, 2)) + mono({"Q": 1}, 3)
    b = mono({"q2": 2}, Fraction(-2, 3)) + MultiSeries.one(VARS, TR)
    product = a * b
    rebuilt = MultiSeries.from_terms(VARS, TR, dict(product.items()))
    assert product == rebuilt
    assert hash(product) == hash(rebuilt)
    assert len({product, rebuilt}) == 1


def test_public_edges_yield_tuples_and_fractions():
    tr = Truncation(q_total=2, lam=2)
    s = MultiSeries.from_terms(("q1", "lam"), tr, {(1, -2): 3, (0, 0): Fraction(1, 2)})
    for series in (s, *s.lambda_slices().values()):
        for key, coeff in series.items():
            assert type(key) is tuple and all(type(e) is int for e in key)
            assert type(coeff) is Fraction
    assert sorted(s.lambda_slices()[-2].items()) == [((1, 0), Fraction(3))]


def test_linear_combination_is_the_sum_of_scaled_series():
    a, b = mono({"q1": 1}), mono({"q1": 1, "Q": 1}, Fraction(1, 3))
    combined = MultiSeries.linear_combination(VARS, TR, [(Fraction(1, 2), a), (3, b), (-1, a)])
    assert combined == a.scale(Fraction(1, 2)) + b.scale(3) - a


# -- ring laws under random inputs -------------------------------------------

SMALL_TR = Truncation(q_total=4, big_q=3)


@st.composite
def small_series(draw, zero_constant=False):
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    if zero_constant:
        keys = keys.filter(lambda k: any(k))
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    terms = draw(st.dictionaries(keys, coeffs, max_size=5))
    return MultiSeries.from_terms(VARS, SMALL_TR, terms)


@given(a=small_series(), b=small_series(), c=small_series())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(u=small_series(zero_constant=True))
@settings(max_examples=40, deadline=None)
def test_exp_log_round_trip(u):
    assert u.exp().log() == u
    v = MultiSeries.one(VARS, SMALL_TR) + u
    assert v.log().exp() == v


# -- the graded kernel against the all-pairs reference --------------------------
# The all-pairs multiply and the power-sum exp/log below are the kernel the
# graded one replaced; every result must match them exactly.

LAM_VARS = ("q1", "q2", "Q", "lam")
LAM_RINGS = (
    Truncation(q_total=3, big_q=2, lam=2),
    Truncation(q_total=3, lam=2),  # Q uncapped
    Truncation(big_q=2, lam=3),  # q uncapped
    Truncation(q_total=2, big_q=2),  # lam uncapped
)


def grade_triple(key):
    q1, q2, big_q, lam = key
    return {"q": q1 + q2, "Q": big_q, "lam": lam}


def survives(key, tr):
    grades = grade_triple(key)
    if grades["lam"] < -2:
        raise InternalConsistencyError("lambda exponent fell below -2")
    caps = {"q": tr.q_total, "Q": tr.big_q, "lam": tr.lam}
    return all(cap is None or grades[g] <= cap for g, cap in caps.items())


def naive_mul(a, b):
    terms = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if not survives(key, a.truncation):
                continue
            terms[key] = terms.get(key, Fraction(0)) + ca * cb
    return MultiSeries.from_terms(a.variables, a.truncation, terms)


def power_sum_bound(tr):
    return sum(cap for cap in (tr.q_total, tr.big_q, tr.lam) if cap is not None) + 1


def naive_exp(u):
    acc = term = MultiSeries.one(u.variables, u.truncation)
    for n in range(1, power_sum_bound(u.truncation) + 1):
        term = naive_mul(term, u)
        if term.is_zero():
            break
        acc = acc + term.scale(Fraction(1, math.factorial(n)))
    return acc


def naive_log(f):
    one = MultiSeries.one(f.variables, f.truncation)
    u = f - one
    acc = MultiSeries.zero(f.variables, f.truncation)
    term = one
    for n in range(1, power_sum_bound(f.truncation) + 1):
        term = naive_mul(term, u)
        if term.is_zero():
            break
        acc = acc + term.scale(Fraction((-1) ** (n + 1), n))
    return acc


def capped_grade(key, tr):
    grades = grade_triple(key)
    caps = {"q": tr.q_total, "Q": tr.big_q, "lam": tr.lam}
    return sum(grades[g] for g, cap in caps.items() if cap is not None)


@st.composite
def lam_series(draw, tr, min_lam=-2, controlled=False):
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                     st.integers(min_lam, 2))
    if controlled:
        keys = keys.filter(lambda k: capped_grade(k, tr) >= 1)
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    terms = draw(st.dictionaries(keys, coeffs, max_size=5))
    return MultiSeries.from_terms(LAM_VARS, tr, terms)


def outcome(fn):
    try:
        return fn()
    except InternalConsistencyError:
        return InternalConsistencyError


@given(data=st.data(), tr=st.sampled_from(LAM_RINGS))
@settings(max_examples=80, deadline=None)
def test_mul_matches_all_pairs_reference(data, tr):
    a = data.draw(lam_series(tr))
    b = data.draw(lam_series(tr))
    assert outcome(lambda: a * b) == outcome(lambda: naive_mul(a, b))


@given(data=st.data(), tr=st.sampled_from(LAM_RINGS))
@settings(max_examples=40, deadline=None)
def test_exp_log_match_power_sum_reference(data, tr):
    u = data.draw(lam_series(tr, min_lam=0, controlled=True))
    assert u.exp() == naive_exp(u)
    f = MultiSeries.one(LAM_VARS, tr) + u
    assert f.log() == naive_log(f)
