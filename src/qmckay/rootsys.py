"""Simply-laced (ADE) root systems in simple-root coordinates.

Node numbering is fixed once and for all and shared by every consumer:

* ``A_n``: the chain ``0 - 1 - ... - (n-1)``.
* ``D_n`` (n >= 4): the chain ``0 - 1 - ... - (n-3)`` with the two fork nodes
  ``n-2`` and ``n-1`` both attached to node ``n-3``.
* ``E_6/E_7/E_8``: Bourbaki numbering shifted to 0-based indices; the chain is
  ``0 - 2 - 3 - 4 - ... - (rank-1)`` and node ``1`` is attached to node ``3``.

Positive roots are coefficient vectors over the simple roots, enumerated by
height-induction closure, with the Cartan pairing read sparsely off the
Dynkin edges, and returned sorted by (height, lexicographic coefficients).
That ordering is part of the public contract.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ConfigurationError, as_int
from .records import record

RootVector = tuple[int, ...]

_COXETER_E = {6: 12, 7: 18, 8: 30}


@record(order=True)
class ADEType:
    """A simply-laced Dynkin type: family ``A``/``D``/``E`` plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "D", "E"):
            raise ConfigurationError(f"unknown family {self.family!r}")
        as_int(self.rank, "a rank")
        if self.family == "A" and self.rank < 1:
            raise ConfigurationError("A-type rank must be >= 1")
        if self.family == "D" and self.rank < 4:
            raise ConfigurationError("D-type rank must be >= 4")
        if self.family == "E" and self.rank not in (6, 7, 8):
            raise ConfigurationError("E-type rank must be 6, 7 or 8")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def dynkin_edges(ade: ADEType) -> tuple[tuple[int, int], ...]:
    """Undirected edges of the Dynkin diagram in the fixed node numbering."""
    n = ade.rank
    if ade.family == "A":
        return tuple((i, i + 1) for i in range(n - 1))
    if ade.family == "D":
        chain = tuple((i, i + 1) for i in range(n - 3))
        return chain + ((n - 3, n - 2), (n - 3, n - 1))
    chain = ((0, 2),) + tuple((i, i + 1) for i in range(2, n - 1))
    return chain + ((1, 3),)


def cartan_matrix(ade: ADEType) -> tuple[tuple[int, ...], ...]:
    n = ade.rank
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in dynkin_edges(ade):
        mat[i][j] = mat[j][i] = -1
    return tuple(tuple(row) for row in mat)


def coxeter_number(ade: ADEType) -> int:
    if ade.family == "A":
        return ade.rank + 1
    if ade.family == "D":
        return 2 * ade.rank - 2
    return _COXETER_E[ade.rank]


@lru_cache(maxsize=None)
def positive_roots(ade: ADEType) -> tuple[RootVector, ...]:
    """All positive roots, sorted by (height, lexicographic coefficients).

    Height induction: a positive root of height h+1 is some height-h root
    alpha plus a simple root e_i, and (for simply-laced systems) alpha + e_i
    is a root exactly when the Cartan pairing (C alpha)_i equals -1.  Since
    C = 2I - adjacency, the pairing is read off the Dynkin edges as
    2 alpha_i - (sum of alpha_j over the neighbours j of i), so each step
    costs the node's degree rather than a dense row of C.  Each round of the
    closure yields exactly the roots one height up, so sorting each round
    lexicographically gives the full order.
    """
    n = ade.rank
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for i, j in dynkin_edges(ade):
        neighbours[i].append(j)
        neighbours[j].append(i)
    frontier = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots: list[RootVector] = []
    while frontier:
        frontier.sort()
        roots += frontier
        grown: set[RootVector] = set()
        for alpha in frontier:
            for i, adjacent in enumerate(neighbours):
                pairing = 2 * alpha[i]
                for j in adjacent:
                    pairing -= alpha[j]
                if pairing == -1:
                    grown.add(alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:])
        frontier = list(grown)
    return tuple(roots)


def highest_root(ade: ADEType) -> RootVector:
    roots = positive_roots(ade)
    top = roots[-1]
    # The maximal-height root must dominate every other root coefficientwise.
    for alpha in roots:
        if any(a > t for a, t in zip(alpha, top)):
            raise ConfigurationError(f"no unique highest root for {ade}")
    return top


@record
class RootSystem:
    """Bundled exact data for one ADE type."""

    ade: ADEType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[RootVector, ...]
    coxeter_number: int
    highest_root: RootVector

    @property
    def rank(self) -> int:
        return self.ade.rank


@lru_cache(maxsize=None)
def root_system(ade: ADEType) -> RootSystem:
    roots = positive_roots(ade)
    h = coxeter_number(ade)
    if 2 * len(roots) != ade.rank * h:
        raise ConfigurationError(f"root count of {ade} violates rank*h = |R|")
    return RootSystem(ade, cartan_matrix(ade), roots, h, highest_root(ade))


def parse_ade(label: str) -> ADEType:
    """Parse a label such as ``"D5"`` or ``"E8"``."""
    label = label.strip()
    if len(label) < 2 or label[0] not in "ADE" or not label[1:].isdigit():
        raise ConfigurationError(f"not an ADE label: {label!r}")
    return ADEType(label[0], int(label[1:]))
