"""Primes p = 1 (mod n) near 2^62, and the one lift of `crc` and `grouprep`:
an integer x, |x| <= bound, is its symmetric residue modulo the product P of
the primes past 2 bound, and the witness prime w must agree, which also
checks that a sum of values of Z[zeta_n] is rational.  Both layers use n =
2N, N the order of a group's character tables: one prime set per group."""

from __future__ import annotations

from functools import lru_cache
from itertools import count


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
