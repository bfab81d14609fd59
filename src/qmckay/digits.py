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
"""

from __future__ import annotations

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
