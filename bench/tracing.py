"""Traced runs: wrap the program's public functions from outside.

Every wrapper counts calls, adds up self time (its duration minus the time
covered by wrapped calls made inside it) and counts calls that raised.  Hot
functions of ``words`` and ``stallings`` are kept as these aggregate counters
only; every other wrapped call is also recorded as a span (name, start, end,
parent span) and written out when the run ends.  Times are CPU seconds of
the process (``time.process_time``).
"""

from __future__ import annotations

import itertools
import sys
import time

# (module, attribute, layer name, kind).  An attribute "Class.method" wraps a
# method on the class; a plain name is replaced in every module of the
# package that bound the same function object, so calls made through an
# imported name (``from .projection import project_factor``) are seen too.
# Kind "span" records spans, "hot" keeps aggregate counters only, and
# "count" only counts calls (``_reduce`` runs once per reduction cache miss,
# and its time stays with is_free_factor).
TARGETS = [
    ("words", "Automorphism.__call__", "words.automorphism_apply", "hot"),
    ("words", "Automorphism.__pow__", "words.automorphism_pow", "hot"),
    ("words", "whitehead_type2", "words.whitehead_type2", "hot"),
    ("stallings", "GraphBuilder.fold", "stallings.fold", "hot"),
    ("stallings", "GraphBuilder.trim", "stallings.trim", "hot"),
    ("stallings", "canonical_code", "stallings.canonical_code", "hot"),
    ("stallings", "factor_class", "stallings.factor_class", "hot"),
    ("stallings", "invert_automorphism", "stallings.invert_automorphism",
     "hot"),
    ("stallings", "is_free_factor", "stallings.is_free_factor", "hot"),
    ("stallings", "_reduce", "stallings.reduction_cache", "count"),
    ("stallings", "contained_up_to_conjugacy",
     "stallings.contained_up_to_conjugacy", "hot"),
    ("marked", "cover_core", "marked.cover_core", "span"),
    ("marked", "one_edge_collapse_factors",
     "marked.one_edge_collapse_factors", "span"),
    ("marked", "adapted_rose", "marked.adapted_rose", "span"),
    ("projection", "classify_pair", "projection.classify_pair", "span"),
    ("projection", "find_disjoint_conjugator",
     "projection.find_disjoint_conjugator", "span"),
    ("projection", "joint_embedding", "projection.joint_embedding", "span"),
    ("projection", "project_factor", "projection.project_factor", "span"),
    ("projection", "factor_distance", "projection.factor_distance", "span"),
    ("projection", "farey_distance", "projection.farey_distance", "span"),
    ("complex_cn", "enumerate_cvertices", "complex_cn.enumerate_cvertices",
     "span"),
    ("complex_cn", "x_set", "complex_cn.x_set", "span"),
    ("complex_cn", "chain_progress_verify",
     "complex_cn.chain_progress_verify", "span"),
    ("irreducible", "fill_check", "irreducible.fill_check", "span"),
    ("irreducible", "build_pingpong", "irreducible.build_pingpong", "span"),
    ("irreducible", "pingpong_word", "irreducible.pingpong_word", "span"),
    ("irreducible", "window_xsets", "irreducible.window_xsets", "span"),
    ("cli", "main", "cli.main", "span"),
    ("cli", "load_cache", "cli.load_cache", "span"),
    ("cli", "append_cache", "cli.append_cache", "span"),
]

# per-layer metrics reported by a traced run: (metric, unit)
LAYER_METRICS = [
    ("words.automorphism_apply.calls", "count"),
    ("words.automorphism_apply.self_s", "s"),
    ("words.automorphism_pow.self_s", "s"),
    ("words.whitehead_type2.calls", "count"),
    ("words.whitehead_type2.self_s", "s"),
    ("stallings.fold.calls", "count"),
    ("stallings.fold.self_s", "s"),
    ("stallings.trim.self_s", "s"),
    ("stallings.canonical_code.calls", "count"),
    ("stallings.canonical_code.self_s", "s"),
    ("stallings.factor_class.calls", "count"),
    ("stallings.invert_automorphism.calls", "count"),
    ("stallings.invert_automorphism.self_s", "s"),
    ("stallings.is_free_factor.calls", "count"),
    ("stallings.is_free_factor.self_s", "s"),
    ("stallings.is_free_factor.uncertified", "count"),
    ("stallings.reduction_cache.misses", "count"),
    ("stallings.contained_up_to_conjugacy.calls", "count"),
    ("stallings.contained_up_to_conjugacy.self_s", "s"),
    ("marked.cover_core.calls", "count"),
    ("marked.cover_core.self_s", "s"),
    ("marked.one_edge_collapse_factors.self_s", "s"),
    ("marked.adapted_rose.self_s", "s"),
    ("projection.classify_pair.self_s", "s"),
    ("projection.find_disjoint_conjugator.calls", "count"),
    ("projection.find_disjoint_conjugator.self_s", "s"),
    ("projection.joint_embedding.self_s", "s"),
    ("projection.project_factor.calls", "count"),
    ("projection.project_factor.self_s", "s"),
    ("projection.factor_distance.self_s", "s"),
    ("projection.farey_distance.calls", "count"),
    ("projection.farey_distance.self_s", "s"),
    ("projection.farey_distance.failed", "count"),
    ("complex_cn.enumerate_cvertices.self_s", "s"),
    ("complex_cn.x_set.self_s", "s"),
    ("complex_cn.chain_progress_verify.self_s", "s"),
    ("irreducible.fill_check.self_s", "s"),
    ("irreducible.build_pingpong.self_s", "s"),
    ("irreducible.pingpong_word.self_s", "s"),
    ("irreducible.window_xsets.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.load_cache.self_s", "s"),
    ("cli.append_cache.self_s", "s"),
    ("cli.cache_file_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


class Layer:
    __slots__ = ("calls", "self_s", "failed", "uncertified")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.uncertified = 0


class Tracer:
    """Installs wrappers on the loaded ``subfactor`` modules and removes them
    again.  One tracer serves one traced pass."""

    def __init__(self):
        self.layers = {name: Layer() for _, _, name, _ in TARGETS}
        self.spans = []  # (id, parent id, name, start, end)
        self._stack = []  # [child time, span id] per active wrapped call
        self._ids = itertools.count(1)
        self._undo = []
        self.active = True  # off while the benchmark checks an answer

    def _wrap(self, fn, name, kind):
        layer = self.layers[name]
        hot = kind == "hot"
        stack = self._stack
        spans = self.spans
        clock = time.process_time
        ids = self._ids
        check_certified = name == "stallings.is_free_factor"

        if kind == "count":
            def counter(*args, **kwargs):
                layer.calls += self.active
                return fn(*args, **kwargs)

            return counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            span_id = parent if hot else next(ids)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                layer.calls += 1
                layer.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not ok:
                    layer.failed += 1
                if not hot:
                    spans.append((span_id, parent, name, start, end))
            if check_certified and not result.certified:
                layer.uncertified += 1
            return result

        return wrapper

    def install(self):
        modules = {k: m for k, m in sys.modules.items()
                   if k == "subfactor" or k.startswith("subfactor.")}
        for mod_name, attr, name, kind in TARGETS:
            mod = modules[f"subfactor.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, fn, self._wrap(fn, name, kind))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(fn, name, kind)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._set(other, key, fn, wrapper)

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def metrics(self):
        """Raw per-layer totals of this pass, keyed by metric name."""
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.self_s"] = layer.self_s
            out[f"{name}.failed"] = layer.failed
        out["stallings.is_free_factor.uncertified"] = \
            self.layers["stallings.is_free_factor"].uncertified
        out["stallings.reduction_cache.misses"] = \
            self.layers["stallings.reduction_cache"].calls
        return out
