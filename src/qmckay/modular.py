"""Every exact decision in F_p, modulo primes p = 1 (mod 2N), N the order of
a group's character tables: `prime`; the one lift of `crc` and `grouprep`,
an integer |x| <= bound read back modulo the product P of the primes past
2 bound and checked by a witness prime w; and `conjugates`, equality in
Z[zeta_N]."""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, count
from math import gcd

from .errors import InternalConsistencyError


def is_prime(n: int) -> bool:
    """Miller-Rabin over the first 12 prime bases, deterministic below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d with d odd
    for b in bases:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


@lru_cache(maxsize=None)
def prime(m: int, k: int) -> tuple[int, int]:
    """The k-th prime p = 1 (mod m) below 2^62, counting down, and the
    first z = a^((p-1)/m), a = 2, 3, ..., of order exactly m in F_p."""
    p = prime(m, k - 1)[0] - m if k else (2 ** 62 - 2) // m * m + 1
    while not is_prime(p):
        p -= m
    factors = [f for f in range(2, m + 1) if m % f == 0 and is_prime(f)]
    for a in count(2):
        z = pow(a, (p - 1) // m, p)
        if all(pow(z, m // f, p) != 1 for f in factors):
            return p, z


def lift(n: int, bound) -> tuple[int, int, int]:
    """(P, w, z) for integers of absolute value at most bound: P the first
    primes past 2 bound, w the next, z of order n modulo P w by CRT."""
    primes, modulus = [prime(n, 0)], 1
    while modulus <= 2 * bound:  # the last prime taken is the witness
        modulus *= primes[-1][0]
        primes.append(prime(n, len(primes)))
    witness = primes[-1][0]
    full = modulus * witness
    z = sum(zq * (full // q) * pow(full // q, -1, q) for q, zq in primes) % full
    return modulus, witness, z


def integer(r: int, modulus: int, witness: int) -> int | None:
    """The x = r (mod P), |x| < P/2, or None when x != r (mod the witness)."""
    x = (r + modulus // 2) % modulus - modulus // 2
    return None if (x - r) % witness else x


@lru_cache(maxsize=None)
def _conjugation_table(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """p of `prime(2n, 0)`, the n powers of z^2 mod p, and the k prime to n,
    k = 1 first: what every `conjugates` call at this n reads."""
    p, z = prime(2 * n, 0)
    powers = tuple(accumulate(range(n - 1), lambda a, _: a * z * z % p, initial=1))
    return p, powers, tuple(k for k in range(1, n + 1) if gcd(k, n) == 1)


def conjugates(n: int, terms) -> list[int]:
    """The images of v = sum c_e zeta_n^e, from its (e, c_e) ``terms``, under
    zeta_n -> z^(2k) for each k prime to n, k = 1 first, as symmetric
    residues mod p, for p, z = `prime(2n, 0)`; InternalConsistencyError when
    2 sum |c_e| >= p.  They are all 0 only when v = 0: p = 1 (mod n) splits
    completely in Z[zeta_n], and the kernels of the phi(n) maps are exactly
    the primes above p, so v lies in pZ[zeta_n] and its norm is 0 or at least
    p^phi(n); each conjugate of v is below p in absolute value, so the norm
    is below p^phi(n).  They all equal one c only when v = c: the same holds
    for v - c, whose conjugates stay below sum |c_e| + p/2 < p."""
    p, powers, units = _conjugation_table(n)
    if 2 * sum(abs(c) for _, c in terms) >= p:
        raise InternalConsistencyError(f"a value of Z[zeta_{n}] is too large for F_{p}")
    return [(sum(c * powers[k * e % n] for e, c in terms) + p // 2) % p - p // 2 for k in units]
