"""Small exact linear-algebra helpers over `fractions.Fraction`.

Matrices are lists (or tuples) of rows; every entry is coerced to Fraction.
The tests' dense oracle: no command runs it, and `qmckay.cli` registers it
only for perfbench's tracer, which wraps `mat_inverse`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigurationError

Matrix = list[list[Fraction]]


def as_matrix(rows) -> Matrix:
    out = [[Fraction(v) for v in row] for row in rows]
    if out and any(len(row) != len(out[0]) for row in out):
        raise ConfigurationError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> Matrix:
    a, b = as_matrix(a), as_matrix(b)
    if len(b) != (len(a[0]) if a else 0):
        raise ConfigurationError("shape mismatch in matrix product")
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_inverse(m) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    a = as_matrix(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ConfigurationError("inverse of a non-square matrix")
    aug = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ConfigurationError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
