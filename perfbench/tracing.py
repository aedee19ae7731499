"""Spans around calls into each pdcm module, recorded from outside.

Tracer.install() replaces every module-level binding of the traced
functions -- in the defining module and in each module that imported
the name, e.g. pdcm.saveprob.simplify and pdcm.matching.make_generator --
with a wrapper that records (name, parent span, start, end).  The
program itself is not changed; uninstall() puts the originals back.
"""
from __future__ import annotations

import functools
import os
import resource
import sys
import time

# layer -> functions whose calls are spans of that layer
TRACED = {
    "cli": ("main",),
    "degrees": ("sample_sequence", "load_degree_file", "triple_probability"),
    "rng": ("make_generator",),
    "matching": ("match_stubs", "match_stubs_union"),
    "simplify": ("simplify",),
    "metrics": ("degree_census", "total_variation"),
    "components": ("strongly_connected_components", "write_component_csv"),
    "ingest": ("ingest_path", "parse_edge_list", "to_partially_directed",
               "_classify", "write_pdgraph", "read_pdgraph"),
    "saveprob": ("parse_save_spec", "exact_save_probability",
                 "monte_carlo_save_frequency"),
    "experiment": ("run_experiment", "run_cell"),
}
LAYERS = tuple(TRACED)


def _counts(name, args, result) -> dict:
    """Work counts taken at the span's end, outside its timed interval."""
    if name == "simplify.simplify":
        mg, (g, _) = args[0], result
        return {"simplify.edges_in": mg.n_arcs + mg.n_und_edges,
                "simplify.edges_out": g.num_directed + g.num_undirected}
    if name == "metrics.degree_census":
        return {"metrics.census_support": len(result.counts)}
    if name == "ingest.parse_edge_list":
        return {"ingest.lines": result.num_arcs}
    if name == "ingest.write_pdgraph":
        return {"ingest.pdgraph_bytes": os.path.getsize(args[1])}
    if name == "saveprob.monte_carlo_save_frequency":
        return {"saveprob.replicates": args[1]}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self.counts = {}
        self.rss_highwater_mb = 0.0
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def reset(self):
        self.spans, self.counts, self.rss_highwater_mb = [], {}, 0.0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.process_time(), 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.process_time()
                stack.pop()
            for key, value in _counts(name, args, result).items():
                self.counts[key] = self.counts.get(key, 0) + value
            if name == "simplify.simplify":
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                self.rss_highwater_mb = max(self.rss_highwater_mb, peak)
            return result
        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "pdcm" or key.startswith("pdcm.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"pdcm.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self, elapsed: float) -> dict:
        """Per-span totals and self times, per-layer self times, and the
        part of `elapsed` that no span covers."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = {}, {}, {}
        covered = 0.0
        for (name, parent, start, end), inner in zip(self.spans, child):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                covered += end - start
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in own.items():
            layer_self[name.split(".", 1)[0]] += value
        return {"total": total, "self": own, "calls": calls,
                "layer_self": layer_self, "uncovered": elapsed - covered}

    def call_tree(self) -> dict:
        """'parent > child' -> [calls, seconds], for the trace file."""
        tree = {}
        for name, parent, start, end in self.spans:
            key = f"{self.spans[parent][0] if parent >= 0 else '-'} > {name}"
            entry = tree.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
        return tree
