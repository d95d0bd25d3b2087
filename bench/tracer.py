"""Span tracer for the benchmark's traced run.

The tracer wraps fpaut functions from outside: every module binding of a
listed function (``from .words import power as word_power`` included) and,
for the two listed methods, the class attribute.  ``uninstall`` puts every
original object back.  Nothing in fpaut knows about it.

A wrapped call opens a span (function, start, end, parent span, job id),
kept in compact in-memory arrays and written out by ``dump``.  Functions
marked "boundary" open a span only when called from another layer; inside
their own layer they are only counted, which keeps the span count of a
search pass near a million instead of several.  A direct self-recursive
call is counted without a span.  Generator functions get one span per
resumption.

Self time of a function is the time inside its spans not covered by any
child span; a layer's self time is the sum over its functions, which is the
time inside the layer's spans that child spans in other layers do not cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "parsing", "words", "automorphisms", "matrices",
          "graph_maps", "dynamics", "mapping_torus")

# (module, attribute, metric name, mode)
TARGETS = (
    ("cli", "run_with_cache", "run_with_cache", "span"),
    ("cli", "run", "run", "span"),
    ("cli", "load_automorphism", "load_automorphism", "span"),
    ("cli", "to_jsonable", "to_jsonable", "span"),
    ("cli", "canonical_json", "canonical_json", "span"),
    ("cli", "_run_sharded", "run_sharded", "span"),
    ("cli", "_merge_reports", "merge_reports", "span"),
    ("parsing", "parse_word", "parse_word", "boundary"),
    ("parsing", "render_word", "render_word", "boundary"),
    ("parsing", "presentation_from_dict", "presentation_from_dict", "boundary"),
    ("parsing", "word_table_from_dict", "word_table_from_dict", "boundary"),
    ("words", "reduce_syllables", "reduce_syllables", "boundary"),
    ("words", "multiply", "multiply", "boundary"),
    ("words", "double_coset_rep", "double_coset_rep", "boundary"),
    ("words", "power", "power", "span"),
    ("words", "cyclic_normal_form", "cyclic_normal_form", "span"),
    ("words", "conjugate_test", "conjugate_test", "span"),
    ("words", "CyclicWord.canonical_rotation", "canonical_rotation", "span"),
    ("automorphisms", "apply", "apply", "span"),
    ("automorphisms", "apply_power", "apply_power", "span"),
    ("automorphisms", "apply_inverse", "apply_inverse", "span"),
    ("automorphisms", "compose", "compose", "span"),
    ("automorphisms", "validate", "validate", "span"),
    ("automorphisms", "power", "power", "span"),
    ("automorphisms", "inverse", "inverse", "span"),
    ("automorphisms", "ad", "ad", "span"),
    ("automorphisms", "identity_automorphism", "identity_automorphism", "boundary"),
    ("automorphisms", "is_toral", "is_toral", "boundary"),
    ("automorphisms", "check_central_condition", "check_central_condition", "boundary"),
    ("matrices", "smith_normal_form", "smith_normal_form", "span"),
    ("matrices", "pf_growth_rate", "pf_growth_rate", "span"),
    ("matrices", "invariant_factors", "invariant_factors", "boundary"),
    ("matrices", "determinant", "determinant", "boundary"),
    ("matrices", "char_poly", "char_poly", "boundary"),
    ("matrices", "is_irreducible_matrix", "is_irreducible_matrix", "boundary"),
    ("matrices", "kernel_vector", "kernel_vector", "boundary"),
    ("matrices", "solve_integer", "solve_integer", "boundary"),
    ("matrices", "matrix_inverse_unimodular", "matrix_inverse_unimodular", "boundary"),
    ("graph_maps", "build_standard_map", "build_standard_map", "boundary"),
    ("graph_maps", "transition_matrix", "transition_matrix", "boundary"),
    ("graph_maps", "check_train_track", "check_train_track", "boundary"),
    ("graph_maps", "constants_report", "constants_report", "boundary"),
    ("graph_maps", "nielsen_search", "nielsen_search", "boundary"),
    ("graph_maps", "gate_structure", "gate_structure", "boundary"),
    ("graph_maps", "reduce_steps", "reduce_steps", "boundary"),
    ("graph_maps", "GraphMap.apply_to_path", "apply_to_path", "span"),
    ("dynamics", "enumerate_cyclic_words", "enumerate", "span"),
    ("dynamics", "enumerate_words", "enumerate", "span"),
    ("dynamics", "orbit_lengths", "orbit_lengths", "span"),
    ("dynamics", "classify_growth", "classify_growth", "span"),
    ("dynamics", "atoroidal_search", "atoroidal_search", "span"),
    ("dynamics", "twin_search", "twin_search", "span"),
    ("dynamics", "flare_certify", "flare_certify", "span"),
    ("mapping_torus", "conjugacy_pipeline", "conjugacy_pipeline", "span"),
    ("mapping_torus", "mapping_torus_abelianization",
     "mapping_torus_abelianization", "boundary"),
    ("mapping_torus", "abelianized_action", "abelianized_action", "boundary"),
    ("mapping_torus", "block_orbit_solve", "block_orbit_solve", "boundary"),
)


def _search_tested(counters, args, result):
    counters["dynamics.tested"] += result.tested


def _orbit_syllables(counters, args, result):
    counters["dynamics.orbit_syllables"] += sum(result.lengths)


def _rotation_syllables(counters, args, result):
    counters["words.canonical_rotation.syllables"] += len(args[0].core)


def _apply_syllables(counters, args, result):
    counters["automorphisms.apply.syllables_out"] += len(result)


def _pipeline(counters, args, result):
    counters["mapping_torus.candidates_tested"] += \
        result.diagnostics.get("candidates_tested", 0)
    counters["mapping_torus.decided"] += result.status != "undecided"


# counters read off arguments and results, by (layer, metric name)
POST = {
    ("dynamics", "atoroidal_search"): _search_tested,
    ("dynamics", "twin_search"): _search_tested,
    ("dynamics", "flare_certify"): _search_tested,
    ("dynamics", "orbit_lengths"): _orbit_syllables,
    ("words", "canonical_rotation"): _rotation_syllables,
    ("automorphisms", "apply"): _apply_syllables,
    ("mapping_torus", "conjugacy_pipeline"): _pipeline,
}

COUNTERS = ("dynamics.tested", "dynamics.orbit_syllables",
            "dynamics.enumerate.yielded", "words.canonical_rotation.syllables",
            "automorphisms.apply.syllables_out",
            "mapping_torus.candidates_tested", "mapping_torus.decided")


class Tracer:
    def __init__(self):
        self.metric = []      # fid -> "layer.name"
        self.layer = []       # fid -> layer index
        self.calls = []       # fid -> call count
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.job = [0]        # job id stamped on new spans
        self.span_fid = array("H")
        self.span_parent = array("i")
        self.span_job = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]        # open span ids
        self._fid_stack = [-1]    # their function ids
        self._layer_stack = [-1]  # their layer indices
        self._patched = []        # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"fpaut.{name}"] for name in LAYERS}
        fids = {}
        wrappers = {}
        for module, attr, name, mode in TARGETS:
            metric = f"{module}.{name}"
            if metric not in fids:
                fids[metric] = len(self.metric)
                self.metric.append(metric)
                self.layer.append(LAYERS.index(module))
                self.calls.append(0)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(modules[module], owner_name) if owner_name \
                else modules[module]
            original = vars(owner)[method or attr]
            wrappers[id(original)] = (original, self._wrap(
                original, fids[metric], mode, POST.get((module, name))))
            if owner_name:
                self._patch(owner, method, original, wrappers[id(original)][1])
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fpaut" and not mod_name.startswith("fpaut."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, fid, mode, post):
        layer = self.layer[fid]
        calls = self.calls
        counters = self.counters
        job = self.job
        span_fid, span_parent, span_job = \
            self.span_fid, self.span_parent, self.span_job
        span_start, span_end = self.span_start, self.span_end
        stack, fid_stack, layer_stack = \
            self._stack, self._fid_stack, self._layer_stack
        perf = time.perf_counter
        boundary = mode == "boundary"

        def open_span():
            sid = len(span_fid)
            span_fid.append(fid)
            span_parent.append(stack[-1])
            span_job.append(job[0])
            span_end.append(0.0)
            stack.append(sid)
            fid_stack.append(fid)
            layer_stack.append(layer)
            span_start.append(perf())
            return sid

        def close_span(sid):
            span_end[sid] = perf()
            stack.pop()
            fid_stack.pop()
            layer_stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[fid] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        sid = open_span()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close_span(sid)
                        counters["dynamics.enumerate.yielded"] += 1
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if fid_stack[-1] == fid or (boundary and layer_stack[-1] == layer):
                result = fn(*args, **kwargs)
            else:
                sid = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(sid)
            if post is not None:
                post(counters, args, result)
            return result
        return wrapper

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        """Forget spans and counts; the wrappers stay installed."""
        for arr in (self.span_fid, self.span_parent, self.span_job,
                    self.span_start, self.span_end):
            del arr[:]
        for fid in range(len(self.calls)):
            self.calls[fid] = 0
        for key in self.counters:
            self.counters[key] = 0

    def summary(self) -> dict:
        """Calls, self times and the derived cli figures of the spans so far."""
        n = len(self.span_fid)
        fid_of, parent_of = self.span_fid, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for sid in range(n):
            p = parent_of[sid]
            if p >= 0:
                child[p] += dur[sid]
        fid_self = [0.0] * len(self.metric)
        for sid in range(n):
            fid_self[fid_of[sid]] += dur[sid] - child[sid]

        index = {m: i for i, m in enumerate(self.metric)}
        rwc, run = index["cli.run_with_cache"], index["cli.run"]
        missed = {parent_of[sid] for sid in range(n) if fid_of[sid] == run}
        cache = {"hits": 0, "misses": 0, "read_s": 0.0, "write_s": 0.0}
        inclusive = dict.fromkeys(("cli.load_automorphism", "cli.to_jsonable",
                                   "cli.canonical_json"), 0.0)
        inclusive_ids = {index[m]: m for m in inclusive}
        for sid in range(n):
            f = fid_of[sid]
            if f == rwc:
                kind = "misses" if sid in missed else "hits"
                cache[kind] += 1
                cache["write_s" if sid in missed else "read_s"] += \
                    dur[sid] - child[sid]
            elif f in inclusive_ids:
                inclusive[inclusive_ids[f]] += dur[sid]

        out = {}
        for layer_idx, layer in enumerate(LAYERS):
            fids = [f for f, l in enumerate(self.layer) if l == layer_idx]
            out[f"{layer}.calls"] = sum(self.calls[f] for f in fids)
            out[f"{layer}.self_s"] = sum(fid_self[f] for f in fids)
        for f, metric in enumerate(self.metric):
            out[f"{metric}.calls"] = self.calls[f]
            out[f"{metric}.self_s"] = fid_self[f]
        out.update(self.counters)
        out["cli.cache_hits"] = cache["hits"]
        out["cli.cache_misses"] = cache["misses"]
        out["cli.cache_read_s"] = cache["read_s"]
        out["cli.cache_write_s"] = cache["write_s"]
        out["cli.load_s"] = inclusive["cli.load_automorphism"]
        out["cli.render_s"] = (inclusive["cli.to_jsonable"]
                               + inclusive["cli.canonical_json"])
        out["cli.shard_s"] = fid_self[index["cli.run_sharded"]]
        out["trace.spans"] = n
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"functions": self.metric,
                  "layers": [LAYERS[l] for l in self.layer],
                  "count": len(self.span_fid),
                  "arrays": [["fid", "H"], ["parent", "i"], ["job", "H"],
                             ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_fid, self.span_parent, self.span_job,
                        self.span_start, self.span_end):
                arr.tofile(fh)
