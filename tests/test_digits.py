"""`digits.nstr` against mpmath's own `nstr` of the rounded quotient."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmckay.crc import _GUARD
from qmckay.digits import nstr

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
