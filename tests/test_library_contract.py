"""The library's argument contract: a malformed argument to a public
function raises ConfigurationError, never a bare TypeError, IndexError,
AttributeError or PoleError from inside a layer, and never a value."""

import inspect
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmckay
from qmckay import crc, gwtheory, numeric, series
from qmckay.errors import ConfigurationError
from qmckay.grouprep import (
    Cyclotomic, GroupSpec, age, build_binary_group, build_group, correspondence, exp_turn,
    hard_lefschetz_check, mckay_graph, root_system_of,
)
from qmckay.gwtheory import gw_all_genus, gw_genus0, normal_bundle_type, q_variables
from qmckay.rootsys import parse_ade, root_system
from qmckay.series import MultiSeries, Truncation, sin_power_expansion

D3, T = GroupSpec.dihedral(3), GroupSpec.tetrahedral()
SPECS = st.sampled_from([D3, T])
NOT_INTS = st.sampled_from([1.5, 3.0])
NEGATIVE = st.integers(-5, -1)
BAD_DPS = st.sampled_from([-5, 0, 1.5, 3.0, "x"])
VARS, TR = ("q1", "q2", "Q", "lam"), Truncation(q_total=3, big_q=3, lam=2)


@lru_cache(maxsize=None)
def _potential(spec):
    return crc.orbifold_potential(spec, 3)


def _labels(spec):
    return _potential(spec).class_labels


def good_classes(spec):
    width = len(q_variables(spec))
    return st.tuples(*[st.integers(0, 4)] * width).filter(any)


@st.composite
def bad_classes(draw, spec):
    """Wrong length, a negative or non-integer entry, or the zero class."""
    width = len(q_variables(spec))
    kind = draw(st.sampled_from(["length", "negative", "not-int", "zero"]))
    if kind == "length":
        n = draw(st.integers(0, width + 2).filter(lambda n: n != width))
        return tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    if kind == "zero":
        return (0,) * width
    beta = list(draw(good_classes(spec)))
    beta[draw(st.integers(0, width - 1))] = draw(NEGATIVE if kind == "negative" else NOT_INTS)
    return tuple(beta)


def bad_positions(labels):
    """An unknown label, an index out of range, or a non-integer index."""
    return st.one_of(
        st.sampled_from(["nope", "q9", ""]),
        NEGATIVE, st.integers(len(labels), len(labels) + 3), NOT_INTS)


NOT_MAPPINGS = st.sampled_from([5, 1.5, [("q1", 1)], ("s", 1), "ab"])


def bad_exponents(names):
    """An unknown name, a known name with a non-integer exponent, or no
    mapping at all."""
    return st.one_of(
        st.builds(dict, st.just([("nope", 1)])), NOT_MAPPINGS,
        st.builds(lambda name, e: {name: e}, st.sampled_from(names), NOT_INTS))


def bad_roots(spec):
    """A vector that is not a positive root of the group's root system, or
    one with a non-integer entry."""
    roots = root_system(root_system_of(spec)).positive_roots
    return st.lists(st.one_of(st.integers(-1, 3), NOT_INTS), max_size=8).map(tuple).filter(
        lambda alpha: alpha not in roots)


UNCAPPED = st.sampled_from([Truncation(), Truncation(q_total=2), Truncation(big_q=2)])


def bad_keys():
    """A negative q or Q exponent, or a lam exponent below the floor -2."""
    return st.one_of(
        st.builds(lambda name, e: {name: e}, st.sampled_from(VARS[:3]), NEGATIVE),
        st.integers(-6, -3).map(lambda e: {"lam": e}))


@st.composite
def class_triples(draw, labels):
    """Three class arguments, one of them malformed."""
    triple = [draw(st.sampled_from(labels + tuple(range(len(labels))))) for _ in range(3)]
    triple[draw(st.integers(0, 2))] = draw(bad_positions(labels))
    return triple


@st.composite
def third_partial_calls(draw):
    spec = draw(SPECS)
    labels = _labels(spec)
    kind = draw(st.sampled_from(["class", "x", "dps"]))
    if kind == "class":
        return partial(numeric.third_partial, spec, *draw(class_triples(labels)))
    if kind == "x":
        x = draw(st.one_of(
            st.just({labels[0]: 0.1, "nope": 0.2}), NOT_MAPPINGS,
            # a value mpmath cannot read as a real
            st.sampled_from([None, 1 + 2j, "abc", b"1", [0.1], Fraction(1, 3)]).map(
                lambda v: {labels[-1]: v})))
        return partial(numeric.third_partial, spec, 0, 0, 0, x=x)
    return partial(numeric.third_partial, spec, 0, 0, 0, dps=draw(BAD_DPS))


MALFORMED = {
    "gw_genus0": SPECS.flatmap(lambda spec: bad_classes(spec).map(
        lambda beta: partial(gw_genus0, spec, beta))),
    "gw_all_genus": SPECS.flatmap(lambda spec: st.one_of(
        bad_classes(spec).map(lambda beta: partial(gw_all_genus, spec, beta, 0)),
        st.builds(partial, st.just(gw_all_genus), st.just(spec), good_classes(spec),
                  st.one_of(NOT_INTS, NEGATIVE)))),
    "normal_bundle_type": SPECS.flatmap(lambda spec: bad_positions(_labels(spec)).map(
        lambda rho: partial(normal_bundle_type, spec, rho))),
    "taylor_third_partial": SPECS.flatmap(lambda spec: class_triples(_labels(spec)).map(
        lambda ks: partial(numeric.taylor_third_partial, _potential(spec), *ks))),
    "third_partial": third_partial_calls(),
    "PotentialSeries.coefficient": SPECS.flatmap(lambda spec: bad_exponents(
        _labels(spec)).map(lambda e: partial(_potential(spec).coefficient, e))),
    "MultiSeries.coefficient": bad_exponents(VARS).map(
        lambda e: partial(MultiSeries.one(VARS, TR).coefficient, e)),
    "MultiSeries.monomial": bad_exponents(VARS).map(
        lambda e: partial(MultiSeries.monomial, VARS, TR, e)),
    "MultiSeries.__init__": bad_keys().map(
        lambda e: partial(MultiSeries.monomial, VARS, TR, e)),
    "MultiSeries.from_terms": st.sampled_from([(1.5, 0), ("1", 0), (1, 2.0)]).map(
        lambda key: partial(MultiSeries.from_terms, ("q1", "Q"),
                            Truncation(q_total=2, big_q=2), {key: 1})),
    # an operand that is neither a series nor a rational
    "MultiSeries.arithmetic": st.sampled_from([
        lambda s: s * 1.5, lambda s: 1.5 * s, lambda s: s + 1, lambda s: s - Fraction(1, 2),
        lambda s: s * "2"]).map(lambda op: partial(op, MultiSeries.one(VARS, TR))),
    "MultiSeries.pow_rational": st.sampled_from([0.5, "x", 1.5]).map(
        lambda r: partial(MultiSeries.one(("lam",), Truncation(lam=2)).pow_rational, r)),
    "macmahon_factor": st.one_of(
        bad_exponents(VARS).map(lambda e: partial(series.macmahon_factor, VARS, TR, e, 1)),
        st.sampled_from([{}, {"Q": 1}]).map(
            lambda e: partial(series.macmahon_factor, VARS, TR, e, 1)),
        NOT_INTS.map(lambda w: partial(series.macmahon_factor, VARS, TR, {"q1": 1}, w)),
        UNCAPPED.map(lambda t: partial(series.macmahon_factor, VARS, t, {"q1": 1}, 1))),
    "parse_ade": st.sampled_from(["", "A", "F4", "A0", "A-1", "D3", "E9", "Ax", "5A"]).map(
        lambda label: partial(parse_ade, label)),
    "curve_class": SPECS.flatmap(lambda spec: bad_roots(spec).map(
        lambda alpha: partial(gwtheory.curve_class, spec, alpha))),
    "partition_function": SPECS.flatmap(lambda spec: UNCAPPED.map(
        lambda t: partial(gwtheory.partition_function, spec, t))),
    "partition_function_by_roots": SPECS.flatmap(lambda spec: UNCAPPED.map(
        lambda t: partial(gwtheory.partition_function_by_roots, spec, t))),
    "linear_forms": SPECS.flatmap(lambda spec: BAD_DPS.map(
        lambda dps: partial(numeric.linear_forms, spec, dps))),
    "change_of_variables": SPECS.flatmap(lambda spec: BAD_DPS.map(
        lambda dps: partial(numeric.change_of_variables, spec, dps))),
    "orbifold_potential": SPECS.flatmap(lambda spec: st.one_of(
        st.one_of(NOT_INTS, st.integers(-3, 2)).map(
            lambda degree: partial(crc.orbifold_potential, spec, degree)),
        BAD_DPS.map(lambda dps: partial(crc.orbifold_potential, spec, 3, dps)))),
    "crc_consistency": SPECS.flatmap(lambda spec: BAD_DPS.map(
        lambda dps: partial(crc.crc_consistency, spec, dps))),
    "resolution_third_partials": SPECS.flatmap(lambda spec: BAD_DPS.map(
        lambda dps: partial(numeric.resolution_third_partials, spec, dps))),
    "h_derivative": st.one_of(
        st.one_of(NOT_INTS, st.integers(-3, 2)).map(
            lambda n: partial(numeric.h_derivative, n, 0.5)),
        BAD_DPS.map(lambda dps: partial(numeric.h_derivative, 3, 0.5, dps))),
    "b_series": st.one_of(
        st.one_of(NOT_INTS, st.integers(-3, 0)).map(
            lambda n: partial(numeric.b_series, D3, n)),
        BAD_DPS.map(lambda dps: partial(numeric.b_series, D3, 1, dps))),
    "sin_power_expansion": st.one_of(
        st.builds(partial, st.just(sin_power_expansion),
                  st.one_of(NOT_INTS, st.integers(-3, 0)), st.just(1), st.just(2)),
        st.builds(partial, st.just(sin_power_expansion),
                  st.just(1), st.one_of(NOT_INTS, NEGATIVE), st.just(2)),
        st.builds(partial, st.just(sin_power_expansion),
                  st.just(1), st.just(1), st.one_of(NOT_INTS, NEGATIVE, st.just(3)))),
    "age": st.one_of(
        st.builds(lambda i, bad: partial(age, (0, 1, 2)[:i] + (bad,) + (0, 1, 2)[i + 1:], 3),
                  st.integers(0, 2), st.one_of(NOT_INTS, NEGATIVE)),
        st.sampled_from([(0, 0), (0, 1, 2, 0)]).map(lambda e: partial(age, e, 3)),
        st.one_of(NOT_INTS, st.integers(-3, 0)).map(lambda m: partial(age, (0, 1, 2), m))),
    "rational_guess": st.one_of(
        st.one_of(NOT_INTS, st.integers(-3, 0)).map(
            lambda m: partial(numeric.rational_guess, 0.5, m)),
        BAD_DPS.map(lambda dps: partial(numeric.rational_guess, 0.5, dps=dps))),
}


def _unreachable(*args):
    raise AssertionError("a malformed argument reached an exact lift")


def refuse(call):
    """Assert that ``call`` raises ConfigurationError before either exact
    lift of `qmckay.crc` runs: a refusal after the lift is a late one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crc, "_monomial_tree", _unreachable)
        patch.setattr(crc, "_resolution_rationals", _unreachable)
        with pytest.raises(ConfigurationError):
            call()


@pytest.mark.parametrize("entry", list(MALFORMED))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_malformed_argument_raises_configuration_error(entry, data):
    refuse(data.draw(MALFORMED[entry], label="call"))


REPROS = {
    "gw_genus0-three-entries": lambda: gw_genus0(D3, (1, 0, 0)),
    "gw_genus0-negative": lambda: gw_genus0(D3, (-1, 0)),
    "gw_all_genus-one-entry": lambda: gw_all_genus(D3, (1,), 0),
    "MultiSeries.coefficient": lambda: MultiSeries.one(VARS, TR).coefficient({"q1": 1.5}),
    "MultiSeries.monomial": lambda: MultiSeries.monomial(VARS, TR, {"q1": 1.5}),
    "PotentialSeries.coefficient": lambda: _potential(D3).coefficient({"s": 1.5}),
    "orbifold_potential-degree": lambda: crc.orbifold_potential(D3, 3.0),
    "b_series": lambda: numeric.b_series(D3, 2.0),
    "h_derivative": lambda: numeric.h_derivative(3.5, 0.5),
    "sin_power_expansion": lambda: sin_power_expansion(1.0, 1, 2),
    "age": lambda: age((0, 1.5, 1.5), 3),
    "orbifold_potential-dps-0": lambda: crc.orbifold_potential(D3, 4, 0).jsonable(),
    "orbifold_potential-dps-minus-5": lambda: crc.orbifold_potential(D3, 4, -5).jsonable(),
    "third_partial-dps-0": lambda: numeric.third_partial(D3, 0, 0, 0, dps=0),
    "h_derivative-dps-minus-3": lambda: numeric.h_derivative(3, 0.5, dps=-3),
    "orbifold_potential-D24-dps-0": lambda: crc.orbifold_potential(
        GroupSpec.dihedral(24), 6, 0),
    "crc_consistency-dps-0": lambda: crc.crc_consistency(D3, 0),
    "crc_consistency-dps-minus-5": lambda: crc.crc_consistency(D3, -5),
    "crc_consistency-dps-1.5": lambda: crc.crc_consistency(D3, 1.5),
    "crc_consistency-dps-x": lambda: crc.crc_consistency(D3, "x"),
    "resolution_third_partials-dps-0": lambda: numeric.resolution_third_partials(D3, 0),
    "MultiSeries.coefficient-negative-q": lambda: MultiSeries.one(
        ("q1", "Q"), Truncation(3, 3)).coefficient({"q1": -1}),
    "MultiSeries.coefficient-lam-below-floor": lambda: MultiSeries.one(VARS, TR).coefficient(
        {"lam": -3}),
    "PotentialSeries.coefficient-negative": lambda: _potential(D3).coefficient(
        {"s": -1, "r1": 5}),
    "MultiSeries.monomial-negative-q": lambda: MultiSeries.monomial(
        ("q1", "Q"), Truncation(q_total=3, big_q=3), {"q1": -1}),
    "MultiSeries.from_terms-lam-below-floor": lambda: MultiSeries.from_terms(
        ("lam",), Truncation(lam=4), {(-3,): 1}),
    "MultiSeries.from_terms-negative-q-zero-coefficient": lambda: MultiSeries.from_terms(
        ("q1", "Q"), Truncation(2, 2), {(-1, 0): 0, (0, 0): 1}),
    "MultiSeries-add-different-rings": lambda: MultiSeries.one(VARS, TR) + MultiSeries.one(
        VARS, Truncation(q_total=2, big_q=3, lam=2)),
    "MultiSeries.lambda_slices-no-lam": lambda: MultiSeries.one(
        ("q1", "Q"), Truncation(q_total=2, big_q=2)).lambda_slices(),
    "MultiSeries-power-minus-one": lambda: MultiSeries.one(VARS, TR) ** -1,
    "int-plus-MultiSeries": lambda: 1 + MultiSeries.one(VARS, TR),
    "int-minus-MultiSeries": lambda: 1 - MultiSeries.one(VARS, TR),
    "Cyclotomic-mixed-orders": lambda: Cyclotomic(4, {1: 1}) + Cyclotomic(6, {1: 1}),
    "Cyclotomic-plus-float": lambda: Cyclotomic(4, {1: 1}) + 1.5,
    "float-times-Cyclotomic": lambda: 1.5 * Cyclotomic(4, {1: 1}),
    "exp_turn-not-a-power": lambda: exp_turn(Fraction(1, 3), 4),
    "irrep_index-unknown": lambda: build_group(D3).irrep_index("nope"),
    "mckay_graph-rotation-group": lambda: mckay_graph(build_group(D3)),
    "hard_lefschetz_check-binary-group": lambda: hard_lefschetz_check(build_binary_group(D3)),
    "MultiSeries.monomial-int": lambda: MultiSeries.monomial(("q1", "Q"), Truncation(2, 2), 5),
    "MultiSeries.coefficient-None": lambda: MultiSeries.one(VARS, TR).coefficient(None),
    "macmahon_factor-int": lambda: series.macmahon_factor(VARS, TR, 5, 1),
    "PotentialSeries.coefficient-int": lambda: _potential(D3).coefficient(5),
    "third_partial-x-list": lambda: numeric.third_partial(D3, 0, 0, 0, x=[0.1]),
    "third_partial-x-str": lambda: numeric.third_partial(D3, 0, 0, 0, x="ab"),
    "third_partial-x-None-value": lambda: numeric.third_partial(D3, 0, 0, 0, x={"r1": None}),
    "third_partial-x-complex-value": lambda: numeric.third_partial(
        D3, 0, 0, 0, x={"r1": 1 + 2j}),
    "third_partial-x-str-value": lambda: numeric.third_partial(D3, 0, 0, 0, x={"r1": "abc"}),
}


@pytest.fixture(scope="module")
def built_potentials():
    """The potential the REPROS read, built before `refuse` patches out the
    lift that builds it, so an entry passes whatever ran before it."""
    _potential(D3)


@pytest.mark.usefixtures("built_potentials")
@pytest.mark.parametrize("call", REPROS.values(), ids=list(REPROS))
def test_each_malformed_call_is_refused(call):
    refuse(call)


# public functions whose argument is a record (an ADEType or a GroupModel),
# which the README puts outside the argument contract
RECORD_ARGUMENTS = {"root_system", "mckay_graph", "hard_lefschetz_check"}


def test_every_public_function_with_an_argument_has_malformed_calls():
    """Each function of `qmckay.__all__` that takes more than a GroupSpec has
    a MALFORMED entry; `callable` counts the lru_cache-wrapped ones, such as
    `root_system`, which `inspect.isfunction` skips."""
    public = {name: getattr(qmckay, name) for name in qmckay.__all__}
    takes_more = {name for name, f in public.items() if callable(f) and not inspect.isclass(f)
                  and set(inspect.signature(f).parameters) - {"spec"}}
    assert RECORD_ARGUMENTS <= takes_more
    assert sorted(takes_more - RECORD_ARGUMENTS - set(MALFORMED)) == []


@pytest.mark.parametrize("view", [
    numeric.linear_forms, numeric.change_of_variables,
    lambda spec, dps: numeric.third_partial(spec, 0, 0, 0, dps=dps),
], ids=["linear_forms", "change_of_variables", "third_partial"])
def test_the_mpf_views_read_dps_before_the_correspondence(monkeypatch, view):
    monkeypatch.setattr(numeric, "correspondence", _unreachable)
    with pytest.raises(ConfigurationError):
        view(D3, 0)


# -- well-formed calls keep their values ----------------------------------------


@pytest.mark.parametrize("spec", [D3, T], ids=str)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_genus_zero_agrees_with_all_genus_at_genus_zero(spec, data):
    beta = data.draw(good_classes(spec), label="beta")
    assert gw_all_genus(spec, beta, 0) == gw_genus0(spec, beta)


def test_pinned_invariants_are_unchanged():
    assert gw_genus0(D3, (1, 0)) == 1
    assert gw_genus0(D3, (3, 3)) == Fraction(2, 27)
    assert gw_genus0(D3, (5, 0)) == Fraction(1, 125)
    assert [gw_all_genus(D3, (1, 1), g) for g in range(3)] == [2, Fraction(1, 6), Fraction(1, 120)]
    C2 = GroupSpec.cyclic(2)
    assert [gw_all_genus(C2, (2,), g) for g in range(3)] == [
        Fraction(1, 4), Fraction(1, 12), Fraction(1, 60)]
    assert gw_genus0(T, (0, 0, 1)) == 4
    assert gw_genus0(T, (2, 2, 2)) == Fraction(1, 8)
    assert gw_genus0(T, (1, 2, 1)) == 0
    assert gw_all_genus(T, (0, 2, 2), 1) == Fraction(1, 12)
    assert gw_all_genus(T, (0, 0, 1), 2) == Fraction(1, 60)


@pytest.mark.parametrize("spec", [D3, T], ids=str)
def test_a_label_and_its_index_read_alike(spec):
    labels = _labels(spec)
    potential = _potential(spec)
    for i, label in enumerate(labels):
        via_label = numeric.taylor_third_partial(potential, label, 0, i)
        assert via_label == numeric.taylor_third_partial(potential, i, labels[0], label)
        assert potential.coefficient({label: 3}) == potential.coefficient(
            {lbl: 3 if lbl == label else 0 for lbl in labels})
    for i, label in enumerate(correspondence(spec).slot_labels):
        assert normal_bundle_type(spec, label) == normal_bundle_type(spec, i)


@pytest.mark.parametrize("dps", [1, 2, 3])
def test_low_precision_is_a_precision_not_a_pole(dps):
    assert abs(numeric.third_partial(D3, 0, 0, 0, dps=dps) - Fraction(1, 3)) < 10 ** -dps
    assert numeric.h_derivative(3, 0.5, dps=dps) != 0


def test_rational_guess_of_a_non_finite_value_is_none():
    assert numeric.rational_guess(float("nan")) is None
    assert numeric.rational_guess(float("inf")) is None
    assert numeric.rational_guess(float("-inf")) is None


# -- the test configuration reports a falsifying example ------------------------

_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    """With warnings as errors, Hypothesis's failure report must not turn a
    third-party DeprecationWarning into an INTERNALERROR."""
    (tmp_path / "test_fails.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
         "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example: test_fails(" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
