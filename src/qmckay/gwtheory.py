"""Curve classes, BPS state counts, and the curve-counting partition function.

The resolution of the quotient threefold carries exceptional curve classes
indexed by Irr*(G), the nontrivial irreps of the rotation group.  Every
positive root of the attached ADE system maps to such a class by restricting
its coefficient vector to the non-binary nodes, and `grouprep.root_fibers`
counts the positive roots over each class.  The genus-zero BPS count of a
class is half that number, all higher-genus BPS counts vanish, and
everything else here (partition function, Gromov-Witten invariants in every
genus, the box-counting prediction) is a formal consequence of that table.

Conventions:

* A curve class is a tuple of nonnegative integers over Irr*(G) in the
  canonical ordering (dimension, then table position); the q-variables
  q1..qr follow the same ordering.  `gw_genus0` and `gw_all_genus` read
  their class through one reader, which refuses a class of the wrong
  length, a negative entry and the zero class.
* The partition-function variable Q is formal.  The genus parameter enters
  only through `gw_all_genus`, which converts BPS counts to fixed-genus
  invariants by exact divisor sums against the multiple-cover kernel
  `series.sin_power_expansion`; no analytic substitution relating Q and the
  genus parameter is ever made.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from . import series  # read through the module: a deferred `series` runs only when used
from .errors import ConfigurationError, as_int, position
from .grouprep import GroupSpec, correspondence, root_fibers
from .records import record
from .rootsys import root_system

CurveClass = tuple[int, ...]


def q_variables(spec: GroupSpec) -> tuple[str, ...]:
    """q1..qr, one per nontrivial irrep of G, in the canonical order."""
    corr = correspondence(spec)
    return tuple(f"q{i + 1}" for i in range(len(corr.slots)))


def curve_class(spec: GroupSpec, alpha) -> CurveClass:
    """Image of a positive root: its coefficients at the non-binary nodes."""
    corr = correspondence(spec)
    alpha = tuple(as_int(a, "a root coefficient") for a in alpha)
    roots = root_system(corr.ade).positive_roots
    if alpha not in roots:
        raise ConfigurationError(f"{alpha} is not a positive root of {corr.ade}")
    return tuple(alpha[node] for node in corr.slot_node)


@record
class BPSTable:
    """Genus-zero BPS counts n0 per curve class; all higher genera vanish.

    ``fibers[beta]`` counts the positive roots over beta, so every count is
    fibers[beta]/2 and the table covers exactly the image of the root map.
    """

    spec: GroupSpec
    counts: dict[CurveClass, Fraction]
    fibers: dict[CurveClass, int]

    def jsonable(self) -> list:
        out = []
        for beta in sorted(self.counts):
            out.append({
                "class": list(beta),
                "n0": str(self.counts[beta]),
                "fiber_size": self.fibers[beta],
            })
        return out


def bps_table(spec: GroupSpec) -> BPSTable:
    fibers = dict(root_fibers(spec))
    counts = {beta: Fraction(f, 2) for beta, f in fibers.items()}
    return BPSTable(spec=spec, counts=counts, fibers=fibers)


@record
class PartitionFunction:
    """The curve-class partition function together with its factor list.

    ``factors`` records the product decomposition as (class, weight) pairs:
    the series equals the product over factors of
    prod_m (1 - q^class Q^m)^(m*weight).
    """

    spec: GroupSpec
    series: series.MultiSeries
    factors: tuple[tuple[CurveClass, Fraction], ...]


def _beta_exponents(variables, beta) -> dict[str, int]:
    return {v: b for v, b in zip(variables, beta)}


def partition_function(
    spec: GroupSpec, truncation: series.Truncation
) -> PartitionFunction:
    """Product over BPS classes of the MacMahon factor at weight n0, taken
    as one exponential: Z = exp(-sum over classes of n0 * macmahon_exponent).

    This is the exp-of-a-sum route; `partition_function_by_roots` is the
    product-of-exps route it is checked against.
    """
    fibers = root_fibers(spec)
    variables = q_variables(spec) + ("Q",)
    factors = tuple((beta, Fraction(fibers[beta], 2)) for beta in sorted(fibers))  # n0 = f/2
    log_z = series.MultiSeries.linear_combination(variables, truncation, [
        (-weight, series.macmahon_exponent(variables, truncation, _beta_exponents(variables, beta)))
        for beta, weight in factors])
    return PartitionFunction(spec=spec, series=log_z.exp(), factors=factors)


def partition_function_by_roots(
    spec: GroupSpec, truncation: series.Truncation
) -> PartitionFunction:
    """The same product taken root by root at weight 1/2.

    This is the product-of-exps route: one `macmahon_factor` (an exp) per
    distinct restricted root, raised to the number of positive roots over
    it; a root whose restricted degree exceeds the q-cap keeps its entry in
    ``factors`` but is not multiplied in, since its factor is exactly 1.
    The powers are multiplied as a product tree, the shortest two at a time
    by length, so no large partial product is multiplied by each small
    factor in turn.  It exactly equals `partition_function`, which takes a
    single exp of the per-class sum; it is kept as an independent route so
    the per-class collapse and the exp-of-a-sum are testable rather than
    assumed.
    """
    if truncation.q_total is None or truncation.big_q is None:
        raise ConfigurationError("the MacMahon factor needs q and Q caps")
    corr = correspondence(spec)
    roots = root_system(corr.ade).positive_roots
    variables = q_variables(spec) + ("Q",)
    half = Fraction(1, 2)
    factors = []
    counts: dict[CurveClass, int] = {}  # restricted roots repeat: one factor per class
    for alpha in roots:
        beta = tuple(alpha[node] for node in corr.slot_node)
        if all(b == 0 for b in beta):
            continue
        factors.append((beta, half))
        if sum(beta) > truncation.q_total:
            continue  # every term of its factor is past the q-cap: the factor is exactly 1
        counts[beta] = counts.get(beta, 0) + 1
    powers = [
        series.macmahon_factor(variables, truncation, _beta_exponents(variables, beta), half)
        ** count
        for beta, count in counts.items()
    ] or [series.MultiSeries.one(variables, truncation)]
    while len(powers) > 1:
        powers.sort(key=len)
        odd = powers[-1:] if len(powers) % 2 else []
        powers = [a * b for a, b in zip(powers[::2], powers[1::2])] + odd
    return PartitionFunction(spec=spec, series=powers[0], factors=tuple(factors))


@lru_cache(maxsize=None)
def _cover_kernel(d: int, order: int) -> MappingProxyType:
    """(1/d)(2 sin(d lam/2))^-2 through lam^order as {lam exponent: coefficient},
    built once per (d, order); a dict read is cheaper than `coefficient`."""
    return MappingProxyType({e: c for (e,), c in series.sin_power_expansion(d, 0, order).items()})


def _divisors_of_class(beta: CurveClass) -> list[int]:
    g = gcd(*beta)
    return [d for d in range(1, g + 1) if g % d == 0]


def _read_class(spec: GroupSpec, beta) -> tuple[CurveClass, dict[CurveClass, int]]:
    """``beta`` as a curve class of ``spec``, one nonnegative integer per
    Irr*(G) slot and not all zero, with the `root_fibers` table it indexes."""
    fibers = root_fibers(spec)
    beta = tuple(as_int(b, "a curve class entry") for b in beta)
    width = len(next(iter(fibers)))
    if len(beta) != width or min(beta) < 0:
        raise ConfigurationError(
            f"a curve class of {spec} is {width} nonnegative integers, got {beta}")
    if not any(beta):
        raise ConfigurationError("the zero class has no invariant")
    return beta, fibers


def gw_genus0(spec: GroupSpec, beta) -> Fraction:
    """Genus-zero invariant: sum over d | beta of n0(beta/d) / d^3."""
    return gw_all_genus(spec, beta, 0)


def gw_all_genus(spec: GroupSpec, beta, g: int) -> Fraction:
    """Genus-g invariant from genus-zero BPS data:

        sum over d | beta of n0(beta/d) * [lam^(2g-2)] (1/d)(2 sin(d lam/2))^-2
    """
    beta, fibers = _read_class(spec, beta)
    g = as_int(g, "the genus")
    if g < 0:
        raise ConfigurationError("the genus must be nonnegative")
    order = max(2 * g - 2, 0)
    total = Fraction(0)
    for d in _divisors_of_class(beta):
        f = fibers.get(tuple(b // d for b in beta))
        if f is not None:
            total += Fraction(f, 2) * _cover_kernel(d, order).get(2 * g - 2, 0)  # n0 = f/2
    return total


def normal_bundle_type(spec: GroupSpec, rho) -> tuple[int, int]:
    """Normal bundle degrees (-k, k-2) of the curve attached to an irrep.

    k counts the binary nodes adjacent to the irrep's node in the Dynkin
    diagram, which is the number of surface components contracted onto the
    curve.  ``rho`` is an Irr*(G) label or its index in the canonical order.
    """
    corr = correspondence(spec)
    node = corr.slot_node[position(corr.slot_labels, rho, "nontrivial irrep")]
    cartan = root_system(corr.ade).cartan
    k = sum(
        1
        for other in corr.binary_nodes
        if cartan[node][other] == -1
    )
    return (-k, k - 2)
