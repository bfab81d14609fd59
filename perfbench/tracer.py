"""Span recorder for the traced run, and the per-layer metrics it yields.

Run as a script, this file is one traced request:

    PYTHONPATH=src python3 perfbench/tracer.py FD ARGV...

It wraps the layer functions below in every `qmckay.*` namespace that binds
them (module globals too, since calls within a module resolve there), runs
`qmckay.cli.main(ARGV)` with stdout untouched, and writes its spans as JSON
to the inherited file descriptor FD once the request has ended.

A span is [name, start, end, parent, sizes]: parent is the index of the
enclosing span (-1 for none) and sizes holds the size counts of the call.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from time import perf_counter


def _mul_sizes(args, result):
    a, b = args
    return {"pairs": len(a) * (len(b) if hasattr(b, "variables") else 1),
            "terms_out": len(result)}


# (span name, module, attribute path, size counts of one call, their names);
# the lru-cached layers also count their cache hits.
LAYERS = (
    ("series.mul", "qmckay.series", "MultiSeries.__mul__", _mul_sizes,
     ("pairs", "terms_out")),
    ("series.log", "qmckay.series", "MultiSeries.log", None, ()),
    ("series.exp", "qmckay.series", "MultiSeries.exp", None, ()),
    ("gwtheory.partition_function", "qmckay.gwtheory", "partition_function",
     lambda args, r: {"terms": len(r.series)}, ("terms",)),
    ("gwtheory.partition_function_by_roots", "qmckay.gwtheory",
     "partition_function_by_roots", None, ()),
    ("gwtheory.bps_table", "qmckay.gwtheory", "bps_table", None, ()),
    ("gwtheory.gw_all_genus", "qmckay.gwtheory", "gw_all_genus", None, ()),
    ("gwtheory.normal_bundle_type", "qmckay.gwtheory", "normal_bundle_type", None, ()),
    ("crc.orbifold_potential", "qmckay.crc", "orbifold_potential",
     lambda args, r: {"coefficients": len(r.coefficients)}, ("coefficients",)),
    ("crc.rational_guess", "qmckay.crc", "rational_guess", None, ()),
    ("crc.crc_consistency", "qmckay.crc", "crc_consistency", None, ()),
    ("crc.resolution_third_partials", "qmckay.crc", "resolution_third_partials", None, ()),
    ("crc.third_partial", "qmckay.crc", "third_partial", None, ()),
    ("crc.linear_forms", "qmckay.crc", "linear_forms", None, ()),
    ("grouprep.correspondence", "qmckay.grouprep", "correspondence", None, ("cache_hits",)),
    ("grouprep.mckay_graph", "qmckay.grouprep", "mckay_graph", None, ()),
    ("rootsys.root_system", "qmckay.rootsys", "root_system", None, ("cache_hits",)),
    ("rootsys.positive_roots", "qmckay.rootsys", "positive_roots",
     lambda args, r: {"count": len(r)}, ("count", "cache_hits")),
    ("intersect.threefold_integrals", "qmckay.intersect", "threefold_integrals", None, ()),
    ("intersect.surface_integrals", "qmckay.intersect", "surface_integrals", None, ()),
    ("intersect.mckay_pairing", "qmckay.intersect", "mckay_pairing", None, ()),
    ("intersect.classical_potential", "qmckay.intersect", "classical_potential", None, ()),
    ("exact.mat_inverse", "qmckay.exact", "mat_inverse", None, ()),
    ("cli.main", "qmckay.cli", "main", None, ()),
    ("cli.render", "qmckay.cli", "render",
     lambda args, r: {"bytes": len(r.encode("utf-8"))}, ("bytes",)),
)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for layer, _, _, _, counts in LAYERS:
        names += [f"{layer}.s", f"{layer}.self_s", f"{layer}.calls"]
        names += [f"{layer}.{count}" for count in counts]
        if layer == "series.mul":
            names.append("series.mul.kept_ratio")
    return names + ["trace.overhead_frac"]


class Recorder:
    """Keeps the spans of one request in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, sizes):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            hits = cache_info().hits if cache_info else 0
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            counts = sizes(args, result) if sizes else {}
            if cache_info:
                counts["cache_hits"] = cache_info().hits - hits
            span[4] = counts or None
            return result

        return traced

    def install(self) -> None:
        """Replace each layer function wherever a qmckay namespace binds it."""
        import qmckay.cli  # noqa: F401 - imports every layer module

        namespaces = [
            vars(module) for name, module in sys.modules.items()
            if name == "qmckay" or name.startswith("qmckay.")
        ]
        for layer, module, path, sizes, _ in LAYERS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self.wrap(layer, original, sizes)
            if outer:
                # a method: rebind every class attribute bound to it (__rmul__ too)
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, traced)
                continue
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = traced


def pass_metrics(requests: list[list[list]], scales: list[float]) -> dict[str, float]:
    """Per-layer totals over the spans of every request in one pass, each
    request's times multiplied by its scale.

    `.s` sums spans not nested in a span of the same name; `.self_s` sums
    each span's duration minus the time its child spans cover.
    """
    out = {name: 0 for name in metric_names() if name != "trace.overhead_frac"}
    for spans, scale in zip(requests, scales):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start - child_time[i]) * scale
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.s"] += (end - start) * scale
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
    pairs = out["series.mul.pairs"]
    out["series.mul.kept_ratio"] = out["series.mul.terms_out"] / pairs if pairs else 0.0
    return out


def layer_metrics(passes: list[dict[str, float]], traced_walls, untraced_walls) -> dict:
    """Median of each per-layer metric over the traced passes."""
    out = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    out["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
    )
    return out


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    from qmckay import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as sink:
            json.dump(recorder.spans, sink)
    return code


if __name__ == "__main__":
    sys.exit(main())
