"""Decimal strings of exact rationals, digit for digit as mpmath prints them.

`nstr(n, d, dps, places)` is the string mpmath 1.3.0's
``nstr(mpf(n) / d, places)`` gives under ``workdps(dps)``, formed in integer
arithmetic, so printing an exact value does not load mpmath.  It copies
mpmath's steps rather than rounding n/d correctly, because the printed
bytes are what callers compare:

* n, then the quotient by d, are rounded half to even to the working bits,
  dps_to_prec(dps), as ``mpf(n)`` and ``mpf / int`` round;
* the quotient is cut toward zero to places + 3 decimal digits through a
  binary and then a decimal fixed point (``to_digits_exp``);
* digit places + 1 rounds half up; a leading digit at 10^e prints in fixed
  point for min(-(places // 3), -5) < e < places and with an exponent
  otherwise, and trailing zeros are stripped (``to_str``).

Values beyond 2^+-3500, which ``to_digits_exp`` first scales by a power of
ten computed in floating point, are handed to mpmath itself.

`cos_nstr(terms, n, dps, places)` prints the same way a sum of cosines of
rational turns, such as a real character value, rounded to the nearest float
of the working bits.  It brackets the exact sum in binary fixed point
(`cos_sum`: π by Machin's formula and each cosine by its Taylor series, all
in ints) and prints once both ends of the bracket print alike.
"""

from __future__ import annotations

from functools import lru_cache
from math import log


def _round_bits(man: int, exp: int, prec: int, sticky: bool = False) -> tuple[int, int]:
    """man * 2^exp rounded to prec bits, half to even, as (man, exp); a
    true ``sticky`` says the value lies strictly above man * 2^exp."""
    shift = man.bit_length() - prec
    if shift <= 0:
        return man, exp
    t = man >> (shift - 1)
    if t & 1 and (t & 2 or man & ((1 << (shift - 1)) - 1) or sticky):
        return (t >> 1) + 1, exp + shift
    return t >> 1, exp + shift


def nstr(n: int, d: int, dps: int, places: int) -> str:
    """mpmath's ``nstr(mpf(n) / d, places)`` under ``workdps(dps)``, d > 0."""
    if not n:
        return "0.0"
    prec = max(1, round((dps + 1) * 3.3219280948873626))  # dps_to_prec
    sign = "-" if n < 0 else ""
    num, exp = _round_bits(abs(n), 0, prec)
    shift = prec + 2 - num.bit_length() + d.bit_length()  # a quotient of >= prec + 2 bits
    q, r = divmod(num << shift, d) if shift >= 0 else divmod(num, d << -shift)
    man, exp = _round_bits(q, exp - shift, prec, bool(r))
    top = exp + man.bit_length()
    if abs(top) > 3500:
        import mpmath as mp

        with mp.workdps(dps):
            return mp.nstr(mp.mpf(n) / d, places)
    # to_digits_exp at places + 3 digits: a binary fixed point, then a
    # decimal one, both truncated
    fixprec = max(int((places + 3) * log(10, 2)) + 10 - top, 0)
    fixdps = int(fixprec / log(10, 2) + 0.5)
    offset = exp + fixprec
    fixed = man << offset if offset >= 0 else man >> -offset
    text = str(fixed * 10 ** fixdps >> fixprec)
    exponent = len(text) - fixdps - 1
    # to_str: half up on the next digit, then fixed or exponent form
    if len(text) > places and text[places] in "56789":
        text = str(int(text[:places]) + 1)
        if len(text) > places:
            text, exponent = text[:places], exponent + 1
    else:
        text = text[:places]
    if min(-(places // 3), -5) < exponent < places:
        if exponent < 0:
            text, split = "0" * -exponent + text, 1
        else:
            text, split = text.ljust(exponent + 1, "0"), exponent + 1
        exponent = 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if exponent == 0:
        return sign + text
    return f"{sign}{text}e{exponent:+d}"


# Below, an int A at `bits` stands for A / 2^bits, and each value comes with
# a bound E on its error in the same units.

# the bits `cos_nstr` starts from; it doubles them until the bracket decides
_FIRST_BITS = 128


def _atan_inv(x: int, bits: int) -> tuple[int, int]:
    """atan(1/x) for an int x >= 5, as (A, E)."""
    # x^-(2k+1) cut toward zero is below 25/24 under its true value, and the
    # division by 2k + 1 cuts below 1 more, so each term is off by less than
    # 3; past the first power that reads 0 the alternating tail is below 2
    total, power, k, x2 = 0, (1 << bits) // x, 0, x * x
    while power:
        total += -(power // (2 * k + 1)) if k & 1 else power // (2 * k + 1)
        power //= x2
        k += 1
    return total, 3 * k + 2


@lru_cache(maxsize=8)
def _pi(bits: int) -> tuple[int, int]:
    """π by Machin's formula, 16 atan(1/5) - 4 atan(1/239), as (A, E)."""
    a, a_err = _atan_inv(5, bits)
    b, b_err = _atan_inv(239, bits)
    return 16 * a - 4 * b, 16 * a_err + 4 * b_err


def cos_sum(terms, n: int, bits: int) -> tuple[int, int]:
    """The sum of c * cos(2π e / n) over the (e, c) pairs, 0 <= e < n, as
    (A, E) at ``bits`` >= 32: A / 2^bits lies within E / 2^bits of it."""
    weights: dict[int, int] = {}
    for e, c in terms:
        m = min(e, n - e)  # the same cosine, of an angle in [0, π]
        weights[m] = weights.get(m, 0) + c
    p, p_err = _pi(bits)
    one = 1 << bits
    total = err = 0
    for m, c in weights.items():
        # θ is off by at most p_err + 1, and so, cos being 1-Lipschitz, is
        # cos θ; θ < 3.46, so each Taylor ratio θ^2 / ((2k - 1) 2k) past the
        # first is below 1: the k-th term, one cut from the last, is off by
        # less than k, and past the first term that reads 0 (the k-th) the
        # alternating tail is below k too
        theta = 2 * m * p // n
        square, scale = theta * theta, one * one
        cos, term, k = one, one, 0
        while term:
            k += 1
            term = term * square // (scale * (2 * k - 1) * 2 * k)
            cos += -term if k & 1 else term
        total += c * cos
        err += abs(c) * (p_err + 1 + k * (k + 1) // 2 + k)
    return total, err


def cos_nstr(terms, n: int, dps: int, places: int) -> str:
    """`nstr` of the sum of c * cos(2π e / n) over the (e, c) pairs, rounded
    half to even to dps_to_prec(dps) bits as mpmath's ``+z`` rounds it.

    The bracket [A - E, A + E] holds the sum, and rounding and printing are
    monotone, so when both ends print alike the sum prints so too;
    otherwise the bits double.  The sum is half an algebraic integer α of
    Q(zeta_n), so an irrational one is no dyadic rational and a nonzero
    rational one is a multiple of 1/2 that is a float: no sum other than 0
    lies half-way between two floats, and those brackets decide.  Around 0
    the ends print with opposite signs at every bits, so 0 is decided apart:
    each conjugate of α is at most B = 2 Σ|c| in size and a nonzero α has a
    norm of at least 1, so |α| >= B^-(n - 1), and a bracket inside half that
    about 0 holds only the sum 0, which prints as "0.0".
    """
    # a nonzero sum is at least 1 / zero_scale in size
    zero_scale = 2 * (2 * sum(abs(c) for _, c in terms)) ** (n - 1)
    bits = _FIRST_BITS
    while True:
        a, err = cos_sum(terms, n, bits)
        if (abs(a) + err) * zero_scale < 1 << bits:
            return "0.0"
        text = nstr(a - err, 1 << bits, dps, places)
        if text == nstr(a + err, 1 << bits, dps, places):
            return text
        bits *= 2
