"""Outside-in tracing of the curvetrace layers for the benchmark.

The tracer wraps the boundary functions of each layer from outside the
package: it rebinds them in every ``curvetrace`` module namespace that holds
them (``from .words import canonical_class`` copies the binding, so each copy
is rebound) and patches the public ``PolygonModel`` methods on the class.
Spans stay in memory while the workload runs. ``finish`` restores the
original bindings and computes every per-layer metric from the spans, the
lru caches' ``cache_info()`` and the algebra caches' sizes.

A layer's self time is the time of its spans minus the part covered by
child spans, so time in unwrapped helpers counts for the nearest wrapped
caller.
"""
from __future__ import annotations

import sys
from time import perf_counter

# Layer -> module-level boundary functions. Names starting with "_" are the
# cached or costly internals named in the benchmark's layer table.
BOUNDARIES = {
    "words": (
        "canonical_class",
        "_canonical_class",
        "cyclic_spellings",
        "geodesic_spellings",
        "normalize_word",
        "primitive_root",
        "homology_class",
        "_tables",
    ),
    "polygon": ("polygon_model",),
    "diagrams": ("build_diagram", "build_with_slots"),
    "complement": ("certify_taut", "complement_census"),
    "curves": (
        "tauten_routes",
        "_taut_single",
        "_pair_diagram",
        "_pair_taut",
        "_pair_count",
        "_pair_cross_refined",
        "_cross_min_exhaustive",
        "intersection_number",
        "self_intersection",
        "is_simple",
        "enumerate_classes",
        "enumerate_simple_classes",
    ),
    "algebra": (
        "expand_trace",
        "_expand_class",
        "_merge_basis",
        "multiply_expressions",
        "parse_multicurve",
        "make_multicurve",
        "enumerate_multicurves",
    ),
    "valuations": (
        "thurston_max_check",
        "valuate",
        "make_lamination",
        "lamination_intersection",
    ),
    "mapping": (
        "twist_generator",
        "twist_along",
        "_twist_cached",
        "_humphries",
        "apply_to_expression",
        "apply_to_multicurve",
        "apply_to_class",
        "_substitute",
    ),
}
POLYGON_METHODS = (
    "forward_arc",
    "backward_arc",
    "route_for_spelling",
    "spelling_routes",
    "reduce_route",
    "route_variants",
    "route_word",
    "arc_word",
)
LAYERS = tuple(BOUNDARIES)

# Per-layer metrics: name -> unit. The order is the order of the output.
METRICS = {
    "words.self_s": "s",
    "words.canonical_calls": "count",
    "words.canonical_hit_ratio": "ratio",
    "words.normalize_calls": "count",
    "words.closure_states": "count",
    "polygon.self_s": "s",
    "diagrams.self_s": "s",
    "diagrams.builds": "count",
    "complement.self_s": "s",
    "complement.certify_calls": "count",
    "complement.witness_ratio": "ratio",
    "curves.self_s": "s",
    "curves.tauten_calls": "count",
    "curves.taut_hit_ratio": "ratio",
    "curves.pair_hit_ratio": "ratio",
    "curves.exhaustive_calls": "count",
    "curves.exhaustive_s": "s",
    "curves.budget_errors": "count",
    "algebra.self_s": "s",
    "algebra.expand_cache_size": "count",
    "algebra.merge_cache_size": "count",
    "algebra.merge_calls": "count",
    "valuations.self_s": "s",
    "valuations.calls": "count",
    "mapping.self_s": "s",
    "mapping.image_letters": "count",
}


def _hit_ratio(cached) -> float:
    info = cached.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


class Tracer:
    """Span recorder installed around the curvetrace layer boundaries."""

    def __init__(self, package):
        self.package = package
        self.names = []  # function id -> (layer, qualified name)
        self.spans = []  # (function id, parent span, start, end, error name)
        self.stack = []  # open span indices
        self.sizes = {"cyclic_spellings": 0, "_substitute": 0}
        self.witnesses = 0
        self._restore = []  # (owner, attribute, original)
        self.modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sys.modules.items()
            if name.startswith(package.__name__ + ".")
        }

    # -- installation ------------------------------------------------------

    def install(self):
        namespaces = [self.package] + list(self.modules.values())
        for layer, names in BOUNDARIES.items():
            home = self.modules[layer]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._restore.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        model_cls = self.modules["polygon"].PolygonModel
        for name in POLYGON_METHODS:
            original = vars(model_cls)[name]
            self._restore.append((model_cls, name, original))
            setattr(model_cls, name, self._wrap("polygon", name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, layer, name, fn):
        fid = len(self.names)
        self.names.append((layer, name))
        spans, stack = self.spans, self.stack
        sizes = self.sizes
        sized = name in sizes
        is_certify = name == "certify_taut"
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (fid, parent, start, end, error)
            if sized:
                sizes[name] += len(result)
            elif is_certify and result is not None:
                tracer.witnesses += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- metrics -----------------------------------------------------------

    def finish(self) -> dict:
        """Restore the bindings and return every per-layer metric."""
        self.uninstall()
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = {}
        child = [0.0] * len(self.spans)
        exhaustive_s = 0.0
        budget_errors = 0
        for fid, parent, start, end, error in self.spans:
            duration = end - start
            if parent >= 0:
                child[parent] += duration
            layer, name = self.names[fid]
            calls[name] = calls.get(name, 0) + 1
            if name == "_cross_min_exhaustive":
                exhaustive_s += duration
            if (
                error == "ReductionBudgetExceeded"
                and layer == "curves"
                and (parent < 0 or self.names[self.spans[parent][0]][0] != "curves")
            ):
                budget_errors += 1
        for idx, (fid, _, start, end, _) in enumerate(self.spans):
            self_s[self.names[fid][0]] += end - start - child[idx]

        words, curves, algebra = (
            self.modules["words"],
            self.modules["curves"],
            self.modules["algebra"],
        )
        canonical = words._canonical_class.cache_info()
        certify_calls = calls.get("certify_taut", 0)
        values = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        values.update(
            {
                "words.canonical_calls": canonical.hits + canonical.misses,
                "words.canonical_hit_ratio": _hit_ratio(words._canonical_class),
                "words.normalize_calls": calls.get("normalize_word", 0),
                "words.closure_states": self.sizes["cyclic_spellings"],
                "diagrams.builds": calls.get("build_diagram", 0)
                + calls.get("build_with_slots", 0),
                "complement.certify_calls": certify_calls,
                "complement.witness_ratio": (
                    self.witnesses / certify_calls if certify_calls else 0.0
                ),
                "curves.tauten_calls": calls.get("tauten_routes", 0),
                "curves.taut_hit_ratio": _hit_ratio(curves._taut_single),
                "curves.pair_hit_ratio": _hit_ratio(curves._pair_count),
                "curves.exhaustive_calls": calls.get("_cross_min_exhaustive", 0),
                "curves.exhaustive_s": exhaustive_s,
                "curves.budget_errors": budget_errors,
                "algebra.expand_cache_size": len(algebra._EXPAND_CACHE),
                "algebra.merge_cache_size": len(algebra._MERGE_CACHE),
                "algebra.merge_calls": calls.get("_merge_basis", 0),
                "valuations.calls": calls.get("valuate", 0),
                "mapping.image_letters": self.sizes["_substitute"],
            }
        )
        return {name: values[name] for name in METRICS}
