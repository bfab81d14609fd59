"""`qmckay group`: the character data of G and its McKay node dictionary.

chi_V on each class is printed from its exact cyclotomic value: an integer
as it is, any other value by `digits.cos_nstr`, with no mpmath.
"""

from __future__ import annotations

from .. import grouprep, rootsys
from ..digits import cos_nstr
from . import Report, _rows, canonical_token

# The output contract: chi_V is printed to 30 digits as mpmath's default
# 53-bit context rounds it, so only about 16 of them are right.  ROADMAP
# item 19 moves this to the working digits, with new digests.
_CONTEXT_DPS = 15


def _charvalue(v) -> str:
    value = v.integer_value()
    if value is not None:
        return str(value)
    return cos_nstr(v.terms, v.n, _CONTEXT_DPS, 30)


def cmd_group(spec: grouprep.GroupSpec, args) -> Report:
    corr = grouprep.correspondence(spec)
    g = corr.group
    rs = rootsys.root_system(corr.ade)
    _, ages = grouprep.hard_lefschetz_check(g)
    classes = [
        {
            "label": c.label,
            "size": c.size,
            "element_order": c.element_order,
            "chi_v": _charvalue(g.chi_v[i]),
            "age": str(ages[i]),
        }
        for i, c in enumerate(g.classes)
    ]
    irreps = [{"label": r.label, "dim": r.dim} for r in g.irreps]
    nodes = []
    for p, irrep_idx in enumerate(corr.node_irreps):
        slot = corr.node_slot[p]
        nodes.append({
            "index": p,
            "binary_irrep": corr.binary_group.irreps[irrep_idx].label,
            "curve_irrep": None if slot is None else corr.slot_labels[slot],
            "mark": rs.highest_root[p],
        })
    payload = {
        "group": canonical_token(spec),
        "order": g.order,
        "binary_order": 2 * g.order,
        "ade": str(corr.ade),
        "classes": classes,
        "irreps": irreps,
        "nodes": nodes,
    }
    fields = [
        "section", "label", "size", "element_order", "chi_v", "age", "dim",
        "index", "binary_irrep", "curve_irrep", "mark",
    ]
    # every section fills its own columns and leaves the others empty
    blank = dict.fromkeys(fields)
    rows = _rows(
        {**blank, "section": section, **record}
        for section, records in (("class", classes), ("irrep", irreps), ("node", nodes))
        for record in records
    )

    def lines():
        yield (
            f"{canonical_token(spec)}: |G| = {g.order}, binary cover of order "
            f"{2 * g.order}, root system {corr.ade}"
        )
        yield "classes (label size order chi_V age):"
        for c in classes:
            yield f"  {c['label']} {c['size']} {c['element_order']} {c['chi_v']} {c['age']}"
        yield "irreps (label dim):"
        for r in irreps:
            yield f"  {r['label']} {r['dim']}"
        yield "nodes (index binary_irrep curve_irrep mark):"
        for n in nodes:
            yield f"  {n['index']} {n['binary_irrep']} {n['curve_irrep'] or '-'} {n['mark']}"

    return Report(payload, fields, rows, lines())
