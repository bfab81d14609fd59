"""Independent validation of the character tables.

The binary groups are rebuilt from scratch as explicit unit quaternions
(plain floats, hashed after rounding); their quotients give the rotation
groups.  Conjugacy classes come from orbit closure, and the full character
table is recomputed numerically from the class-algebra structure constants
(common eigenvectors of the class-sum matrices).  Everything the package
claims about a table is then checked against this oracle: class data,
character values per class, and the McKay adjacency built from the
2-dimensional defining character.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from qmckay.crc import as_mpc
from qmckay.grouprep import (
    GroupSpec,
    build_binary_group,
    build_group,
    class_multiplication,
    correspondence,
    mckay_graph,
)

ALL_SPECS = (
    [GroupSpec.cyclic(k) for k in range(2, 9)]
    + [GroupSpec.dihedral(m) for m in range(2, 7)]
    + [GroupSpec.tetrahedral(), GroupSpec.octahedral(), GroupSpec.icosahedral()]
)

IDS = [str(s) for s in ALL_SPECS]


# ---------------------------------------------------------------------------
# quaternion machinery
# ---------------------------------------------------------------------------


def _quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _key(q):
    return tuple(round(c, 9) + 0.0 for c in q)


def _inv(q):
    w, x, y, z = q
    return (w, -x, -y, -z)


def _generators(spec):
    if spec.kind == "cyclic":
        a = math.pi / spec.parameter
        return [(math.cos(a), 0.0, 0.0, math.sin(a))]
    if spec.kind == "dihedral":
        a = math.pi / spec.parameter
        return [(math.cos(a), 0.0, 0.0, math.sin(a)), (0.0, 1.0, 0.0, 0.0)]
    if spec.kind == "tetrahedral":
        return [(0.5, 0.5, 0.5, 0.5), (0.0, 1.0, 0.0, 0.0)]
    if spec.kind == "octahedral":
        r = 1 / math.sqrt(2)
        return [(0.5, 0.5, 0.5, 0.5), (r, r, 0.0, 0.0)]
    phi = (1 + math.sqrt(5)) / 2
    return [
        (0.5, 0.5, 0.5, 0.5),
        (phi / 2, 1 / (2 * phi), 0.5, 0.0),
    ]


def _near(a, b):
    return max(abs(x - y) for x, y in zip(a, b)) < 1e-6


def _closure(generators):
    """Full-precision closure; rounded keys are hash hints, never identity."""
    elements = [(1.0, 0.0, 0.0, 0.0)]
    bykey = {_key(elements[0]): 0}
    frontier = [elements[0]]
    while frontier:
        q = frontier.pop()
        for g in generators:
            p = _quat_mul(q, g)
            if _key(p) in bykey:
                continue
            if any(_near(p, e) for e in elements):
                continue
            bykey[_key(p)] = len(elements)
            elements.append(p)
            frontier.append(p)
    return sorted(elements, key=_key)


class OracleGroup:
    """A finite group given by explicit elements and a multiplication rule."""

    def __init__(self, elements, mul, identity):
        self.elements = list(elements)
        self._bykey = {_key(e): i for i, e in enumerate(self.elements)}
        self.identity = identity
        n = len(self.elements)
        self.product = [[0] * n for _ in range(n)]
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                self.product[i][j] = self._find(mul(a, b))
        self.inverse = [0] * n
        e = self._find(identity)
        for i in range(n):
            for j in range(n):
                if self.product[i][j] == e:
                    self.inverse[i] = j
                    break
        self.classes = self._conjugacy_classes()

    def _find(self, q) -> int:
        hit = self._bykey.get(_key(q))
        if hit is not None:
            return hit
        best = min(range(len(self.elements)),
                   key=lambda j: max(abs(a - b) for a, b in zip(q, self.elements[j])))
        assert _near(q, self.elements[best]), q
        return best

    def _conjugacy_classes(self):
        n = len(self.elements)
        seen = [False] * n
        classes = []
        for i in range(n):
            if seen[i]:
                continue
            orbit = set()
            for g in range(n):
                c = self.product[self.product[g][i]][self.inverse[g]]
                orbit.add(c)
            for c in orbit:
                seen[c] = True
            classes.append(sorted(orbit))
        # identity class first, then a deterministic order
        e = self._find(self.identity)
        classes.sort(key=lambda cls: (e not in cls, len(cls), cls))
        return classes

    def element_order(self, i):
        e = self._find(self.identity)
        k, acc = 1, i
        while acc != e:
            acc = self.product[acc][i]
            k += 1
        return k


def _dixon_characters(group):
    """Character table from class-algebra structure constants.

    The vectors of normalised class sums omega_k = |C_k| chi(g_k)/chi(1)
    are the common eigenvectors of the structure-constant matrices; the
    degree is recovered from the row orthogonality relation.
    """
    classes = group.classes
    c = len(classes)
    n = len(group.elements)
    class_of = [0] * n
    for ci, cls in enumerate(classes):
        for e in cls:
            class_of[e] = ci
    reps = [cls[0] for cls in classes]
    mats = np.zeros((c, c, c))
    for i, cls_i in enumerate(classes):
        for j, cls_j in enumerate(classes):
            counts = Counter()
            for x in cls_i:
                row = group.product[x]
                for y in cls_j:
                    counts[row[y]] += 1
            for k, rep in enumerate(reps):
                mats[i][j][k] = counts[rep]
    rng = np.random.default_rng(20240811)
    for _ in range(8):
        combo = sum(rng.standard_normal() * mats[i] for i in range(c))
        eigenvalues, vectors = np.linalg.eig(combo)
        if c > 1 and np.min(
            np.abs(eigenvalues[:, None] - eigenvalues[None, :])[
                ~np.eye(c, dtype=bool)
            ]
        ) < 1e-6:
            continue
        break
    else:
        raise AssertionError("no separating class-sum combination found")
    identity_class = class_of[group._find(group.identity)]
    table = []
    sizes = np.array([len(cls) for cls in classes], dtype=float)
    for col in range(c):
        u = vectors[:, col]
        u = u / u[identity_class]
        degree = math.sqrt(round(n / float(np.sum(np.abs(u) ** 2 / sizes)), 6))
        table.append(tuple(degree * u[k] / sizes[k] for k in range(c)))
    table.sort(key=lambda row: (round(row[identity_class].real, 6),
                                [(round(v.real, 6), round(v.imag, 6)) for v in row]))
    return table


def _trace(q):
    return 2 * q[0]


def _class_bucket_key(group, cls, chi_u=None):
    rep = cls[0]
    trace = round(chi_u(group.elements[rep]), 6) if chi_u else None
    return (len(cls), group.element_order(rep), trace)


def _binary_oracle(spec):
    elements = _closure(_generators(spec))
    return OracleGroup(elements, _quat_mul, (1.0, 0.0, 0.0, 0.0))


def _canon_pm(q):
    neg = tuple(-c for c in q)
    return q if _key(q) >= _key(neg) else neg


def _quotient_oracle(binary):
    chosen = {}
    for e in binary.elements:
        rep = _canon_pm(e)
        chosen.setdefault(_key(rep), rep)
    elements = [chosen[k] for k in sorted(chosen)]
    return OracleGroup(
        elements,
        lambda a, b: _canon_pm(_quat_mul(a, b)),
        (1.0, 0.0, 0.0, 0.0),
    )


def _round_complex(v):
    return (round(complex(v).real, 6), round(complex(v).imag, 6))


def _model_value(v):
    z = as_mpc(v)
    return (round(float(z.real), 6), round(float(z.imag), 6))


def _compare_table(model, group, table, chi_u):
    """Class data and character values must agree bucket by bucket.

    Buckets group classes with identical (size, element order, trace); the
    only ambiguity inside a bucket is an inverse/conjugation relabelling,
    which the value multisets absorb.
    """
    oracle_buckets = Counter()
    for cls in group.classes:
        oracle_buckets[_class_bucket_key(group, cls, chi_u)] += 1
    model_buckets = Counter()
    model_trace = model.chi_u if model.is_binary else model.chi_v
    for ci, cls in enumerate(model.classes):
        key = (cls.size, cls.element_order, round(float(as_mpc(model_trace[ci]).real), 6))
        model_buckets[key] += 1
    assert oracle_buckets == model_buckets

    class_of = {}
    for ci, cls in enumerate(group.classes):
        class_of[ci] = _class_bucket_key(group, cls, chi_u)
    for bucket in oracle_buckets:
        oracle_values = Counter()
        for ci, cls in enumerate(group.classes):
            if class_of[ci] != bucket:
                continue
            for row in table:
                oracle_values[_round_complex(row[ci])] += 1
        model_values = Counter()
        for ci, cls in enumerate(model.classes):
            key = (cls.size, cls.element_order, round(float(as_mpc(model_trace[ci]).real), 6))
            if key != bucket:
                continue
            for row in model.table:
                model_values[_model_value(row[ci])] += 1
        assert oracle_values == model_values, bucket


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_binary_group_against_quaternion_oracle(spec):
    group = _binary_oracle(spec)
    model = build_binary_group(spec)
    assert len(group.elements) == 2 * spec.order
    table = _dixon_characters(group)
    assert len(table) == len(model.irreps)
    _compare_table(model, group, table, lambda rep: _trace(rep))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_rotation_group_against_quotient_oracle(spec):
    binary = _binary_oracle(spec)
    group = _quotient_oracle(binary)
    model = build_group(spec)
    assert len(group.elements) == spec.order
    table = _dixon_characters(group)
    assert len(table) == len(model.irreps)
    _compare_table(model, group, table, _chi_v)


def _chi_v(rep):
    # a rotation by angle theta has chi_V = 1 + 2 cos theta = 4 w^2 - 1
    return 4 * rep[0] * rep[0] - 1


def _oracle_class_constants(group):
    """N[i][j][k] = #{(a, b) in C_i x C_j : ab = c}, c the first element of C_k."""
    out = []
    for cls_i in group.classes:
        plane = []
        for cls_j in group.classes:
            counts = Counter(group.product[a][b] for a in cls_i for b in cls_j)
            plane.append([counts[cls_k[0]] for cls_k in group.classes])
        out.append(plane)
    return out


def _bucket_bijections(keys_a, keys_b):
    """Every bijection from positions in keys_a to positions in keys_b that
    maps each position to one with the same key."""
    choices = []
    for key in set(keys_a):
        src = [i for i, k in enumerate(keys_a) if k == key]
        dst = [i for i, k in enumerate(keys_b) if k == key]
        assert len(src) == len(dst), key
        choices.append([list(zip(src, perm)) for perm in itertools.permutations(dst)])
    for choice in itertools.product(*choices):
        yield dict(pair for pairs in choice for pair in pairs)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_class_constants_against_triple_count(spec):
    # classes sharing (size, element order, chi_V) are told apart only up
    # to relabelling, so some such relabelling must match every constant
    group = _quotient_oracle(_binary_oracle(spec))
    model = build_group(spec)
    want = _oracle_class_constants(group)
    got = class_multiplication(model)
    oracle_keys = [_class_bucket_key(group, cls, _chi_v) for cls in group.classes]
    model_keys = [
        (cls.size, cls.element_order, round(float(as_mpc(model.chi_v[ci]).real), 6))
        for ci, cls in enumerate(model.classes)
    ]
    r = range(len(want))
    assert any(
        all(want[i][j][k] == got[s[i]][s[j]][s[k]] for i in r for j in r for k in r)
        for s in _bucket_bijections(oracle_keys, model_keys)
    )


def _oracle_mckay_adjacency(group, table):
    """Multiplicity of irrep j inside (defining 2-dim rep) x (irrep i)."""
    sizes = [len(cls) for cls in group.classes]
    traces = [_trace(group.elements[cls[0]]) for cls in group.classes]
    n = len(group.elements)
    c = len(group.classes)
    out = [[0] * len(table) for _ in range(len(table))]
    inverse_class = []
    for cls in group.classes:
        inv = group.inverse[cls[0]]
        for cj, other in enumerate(group.classes):
            if inv in other:
                inverse_class.append(cj)
                break
    for i, chi_i in enumerate(table):
        for j, chi_j in enumerate(table):
            total = 0j
            for k in range(c):
                total += sizes[k] * traces[k] * chi_i[k] * chi_j[inverse_class[k]]
            value = total / n
            assert abs(value.imag) < 1e-6
            assert abs(value.real - round(value.real)) < 1e-6
            out[i][j] = int(round(value.real))
    return out


def _graphs_isomorphic(dims_a, adj_a, dims_b, adj_b):
    """Backtracking isomorphism respecting node dimensions and degrees."""
    size = len(dims_a)
    if len(dims_b) != size:
        return False
    deg_a = [sum(row) for row in adj_a]
    deg_b = [sum(row) for row in adj_b]
    if sorted(zip(dims_a, deg_a)) != sorted(zip(dims_b, deg_b)):
        return False
    candidates = [
        [j for j in range(size) if dims_b[j] == dims_a[i] and deg_b[j] == deg_a[i]]
        for i in range(size)
    ]
    mapping = [None] * size
    used = [False] * size

    def extend(i):
        if i == size:
            return True
        for j in candidates[i]:
            if used[j]:
                continue
            if any(adj_a[i][k] != adj_b[j][mapping[k]] for k in range(i)):
                continue
            mapping[i] = j
            used[j] = True
            if extend(i + 1):
                return True
            used[j] = False
        return False

    return extend(0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_oracle_mckay_graph_matches_model(spec):
    group = _binary_oracle(spec)
    table = _dixon_characters(group)
    oracle_adj = _oracle_mckay_adjacency(group, table)
    identity_class = next(
        ci for ci, cls in enumerate(group.classes)
        if group._find(group.identity) in cls
    )
    oracle_dims = [int(round(row[identity_class].real)) for row in table]

    corr = correspondence(spec)
    graph = mckay_graph(corr.binary_group)
    model_dims = list(graph.dims)
    model_adj = [list(row) for row in graph.adjacency]
    assert _graphs_isomorphic(oracle_dims, oracle_adj, model_dims, model_adj)
