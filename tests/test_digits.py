"""`digits.nstr` against mpmath's own `nstr` of the rounded quotient, and
`digits.cos_nstr` against mpmath's route to the same digits."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmckay import digits
from qmckay.crc import _GUARD
from qmckay.digits import cos_nstr, cos_sum, nstr
from qmckay.grouprep import GroupSpec, correspondence, two_cos_turn
from qmckay.numeric import as_mpc

ROOT = Path(__file__).resolve().parent.parent

# `crc` prints at dps + _GUARD working digits; low precisions print fewer
# than 30 digits, so they get their own share
PRECISIONS = st.one_of(st.integers(10, 40), st.integers(10, 4000))
PLACES = st.sampled_from([30, 5])


def _agree(n, d, dps, places):
    places = min(places, dps)
    with mp.workdps(dps + _GUARD):
        want = mp.nstr(mp.mpf(n) / d, places)
    assert nstr(n, d, dps + _GUARD, places) == want


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(-10 ** 80, 10 ** 80), st.integers(-2 ** 3000, 2 ** 3000)),
       d=st.one_of(st.integers(1, 10 ** 40), st.integers(1, 2 ** 3000)),
       dps=PRECISIONS, places=PLACES)
@example(n=12345678915, d=10 ** 11, dps=10, places=30)  # a tie: 0.1234567891, not ...892
@example(n=-10 ** 31 + 1, d=1, dps=30, places=30)  # all nines round up a place
@example(n=2 ** 4000, d=3, dps=64, places=30)  # past 2^3500: mpmath's own branch
@example(n=-7, d=3 ** 2300, dps=4000, places=30)  # below 2^-3500
def test_nstr_matches_mpmath(n, d, dps, places):
    _agree(n, d, dps, places)


@settings(max_examples=300, deadline=None)
@given(odd=st.integers(0, 10 ** 35), a=st.integers(0, 120), b=st.integers(0, 120),
       negative=st.booleans(), dps=PRECISIONS, places=PLACES)
def test_nstr_matches_mpmath_on_decimal_ties(odd, a, b, negative, dps, places):
    # odd * 5 over 2^a 5^b terminates in a 5: half-way cases at many places
    _agree((2 * odd + 1) * 5 * (-1 if negative else 1), 2 ** a * 5 ** b, dps, places)


@settings(max_examples=300, deadline=None)
@given(mantissa=st.integers(10 ** 29, 10 ** 31), power=st.integers(-13, 33),
       nudge=st.integers(-3, 3), dps=PRECISIONS, places=PLACES)
def test_nstr_matches_mpmath_around_the_exponent_form(mantissa, power, nudge, dps, places):
    # leading digits near 10^-10 and 10^30, where 30-digit output switches
    # between fixed point and exponent form
    if power >= 0:
        _agree(mantissa * 10 ** power + nudge, 10 ** 30, dps, places)
    else:
        _agree(mantissa + nudge, 10 ** (30 - power), dps, places)


def test_nstr_loads_mpmath_only_past_2_to_the_3500():
    probe = (
        "import sys\n"
        "from qmckay.digits import nstr\n"
        "nstr(-(2 ** 3400), 3, 4010, 30)\n"
        "nstr(1, 2 ** 3400, 20, 10)\n"
        "before = 'mpmath' in sys.modules\n"
        "nstr(2 ** 3600, 3, 74, 30)\n"
        "print(before, 'mpmath' in sys.modules)\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("QMCKAY_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


# -- sums of cosines: the chi_V column of `group` -------------------------------
# `group` printed mp.nstr(numeric.as_mpc(v).real, 30) in mpmath's default
# 53-bit context; `cos_nstr` shares no code with that route.


def _mpmath_route(v):
    with mp.workdps(15):
        return mp.nstr(as_mpc(v).real, 30)


def _cos_route(v):
    return cos_nstr(v.terms, v.n, 15, 30)


def test_cos_nstr_matches_mpmath_on_every_turn_up_to_120():
    # 1 + 2 cos(2 pi p/q) for q <= 120 covers every chi_V value of C:2-60 and
    # D:2-60; q - p gives the same value, and an integer is printed as one
    values = [1 + two_cos_turn(Fraction(p, q), q)
              for q in range(2, 121) for p in range(1, q // 2 + 1) if gcd(p, q) == 1]
    values = [v for v in values if v.integer_value() is None]
    assert len(values) > 2000
    assert [v.terms for v in values if _cos_route(v) != _mpmath_route(v)] == []


@pytest.mark.parametrize("spec", [GroupSpec.tetrahedral(), GroupSpec.octahedral(),
                                  GroupSpec.icosahedral()], ids=["T", "O", "I"])
def test_cos_nstr_matches_mpmath_on_the_exceptional_chi_v_rows(spec):
    values = [v for v in correspondence(spec).group.chi_v if v.integer_value() is None]
    assert [_cos_route(v) for v in values] == [_mpmath_route(v) for v in values]


def test_cos_nstr_refines_a_bracket_that_does_not_decide(monkeypatch):
    phi = 1 + two_cos_turn(Fraction(1, 5), 5)
    a, err = cos_sum(phi.terms, phi.n, 32)
    assert nstr(a - err, 1 << 32, 15, 30) != nstr(a + err, 1 << 32, 15, 30)
    monkeypatch.setattr(digits, "_FIRST_BITS", 32)
    assert _cos_route(phi) == _mpmath_route(phi) == "1.61803398874989490252573887119"


@pytest.mark.parametrize("terms, n", [
    ((), 1),
    (((1, 1),), 4),  # cos(pi/2)
    (((1, 1), (2, 1)), 6),  # cos(pi/3) + cos(2pi/3)
    (((0, 1), (1, 1), (2, 1), (3, 1), (4, 1)), 5),  # 1 + 2cos(2pi/5) + 2cos(4pi/5)
    (((1, 3), (7, -3)), 8),  # 3cos(pi/4) - 3cos(7pi/4)
], ids=["empty", "C4", "C6", "C5", "C8"])
def test_cos_nstr_prints_a_zero_sum_as_zero(terms, n):
    assert cos_nstr(terms, n, 15, 30) == "0.0"
