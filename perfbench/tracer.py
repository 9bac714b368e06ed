"""Traced mode: spans around sdkit's layers, recorded from outside the program.

`from .x import f` binds f into the importing module, so a function is
wrapped under every sdkit module name that binds it (for example both
sdkit.core.pushout and sdkit.solver.pushout). Spans (name, start, end,
parent, query id) are kept in memory and written out when the pass ends;
self times are derived from them. Predicate calls are counted through a
PropertyPredicate of the same name placed in sdkit.solver.PREDICATES (and
under PATHS/BIPARTITE/PLANAR, which longest_path reads directly); a call
made inside a leaf enumeration is only counted, one made anywhere else gets
a span of its own.
"""
from __future__ import annotations

import dataclasses
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("sdkit", "sdkit.core", "sdkit.decomposition", "sdkit.width", "sdkit.solver", "sdkit.cli")

# (defining module, function) -> span name. A function missing from a later
# sdkit is skipped and its time stays in its caller's self time.
SPANNED = {
    ("sdkit.cli", "run"): "cli.run",
    ("sdkit.cli", "build_parser"): "cli.build_parser",
    ("sdkit.decomposition", "decomposition_from_json"): "decomposition.from_json",
    ("sdkit.decomposition", "validate"): "decomposition.validate",
    ("sdkit.decomposition", "require_valid"): "decomposition.validate",
    ("sdkit.decomposition", "evaluate_colimit"): "decomposition.colimit",
    ("sdkit.core", "pushout"): "core.pushout",
    ("sdkit.core", "find_isomorphism"): "core.find_isomorphism",
    ("sdkit.width", "tree_decomposition_reading"): "width.td_reading",
    ("sdkit.width", "treewidth_exact"): "width.treewidth",
    ("sdkit.width", "complemented_treewidth"): "width.co_treewidth",
    ("sdkit.width", "peo"): "width.chordal",
    ("sdkit.width", "decomposition_from_chordal"): "width.chordal",
    ("sdkit.width", "layered_treewidth_exact"): "width.layered",
    ("sdkit.solver", "enumerate_subp_bruteforce"): "solver.leaf",
    ("sdkit.solver", "_compose_entries"): "solver.pair_loop",
    ("sdkit.solver", "solve_on_decomposition"): "solver.fold",
    ("sdkit.solver", "best_entry"): "solver.best",
    ("sdkit.solver", "longest_path"): "solver.named",
}

# per-layer metric -> span names whose self time it sums
SELF_MS = {
    "cli.build_parser_ms": ("cli.build_parser",),
    "cli.self_ms": ("cli.run",),
    "decomposition.from_json_ms": ("decomposition.from_json",),
    "decomposition.validate_ms": ("decomposition.validate",),
    "decomposition.colimit_ms": ("decomposition.colimit",),
    "core.pushout_ms": ("core.pushout",),
    "core.find_isomorphism_ms": ("core.find_isomorphism",),
    "width.td_reading_ms": ("width.td_reading",),
    "width.treewidth_ms": ("width.treewidth", "width.co_treewidth"),
    "width.chordal_ms": ("width.chordal",),
    "width.layered_ms": ("width.layered",),
    "solver.leaf_ms": ("solver.leaf",),
    "solver.pair_loop_ms": ("solver.pair_loop",),
    "solver.pred_ms": ("solver.predicate",),
    "solver.fold_self_ms": ("solver.fold",),
    # longest_path's own time is the scan of the final table for the best
    # single path, the same job best_entry does for solve
    "solver.best_ms": ("solver.best", "solver.named"),
}
CALLS = {
    "decomposition.colimit_calls": "decomposition.colimit",
    "core.pushout_calls": "core.pushout",
    "width.treewidth_calls": "width.treewidth",
    "solver.leaf_calls": "solver.leaf",
}
QUERY = "bench.query"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, query id]
        self.stack = []
        self.query_id = None
        self.counts = Counter()
        self.leaf_depth = 0
        self.table_max = 0
        self.patched = []  # (namespace, attribute, original)
        self.skipped = []

    # --- recording -------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.query_id])
        self.stack.append(index)
        return index

    def _close(self, index):
        self.stack.pop()
        self.spans[index][2] = time.perf_counter_ns()

    def query(self, query_id, call):
        self.query_id = query_id
        index = self._open(QUERY)
        try:
            return call()
        finally:
            self._close(index)

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            if name == "solver.leaf":
                self.leaf_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if name == "solver.leaf":
                    self.leaf_depth -= 1
                self._close(index)
            if name == "solver.leaf":
                self.counts["solver.leaf_entries"] += len(result.entries)
            elif name == "solver.fold":
                self._record_solve(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_solve(self, result):
        stats = result.stats
        pairs = getattr(stats, "pair_compositions", None)
        if pairs is None:
            pairs = sum(l * r for l, r in stats.compositions)
        self.counts["solver.pair_compositions"] += pairs
        self.table_max = max(self.table_max, max(stats.table_sizes, default=0))
        self.counts["solver.table_final"] += len(result.table.entries)

    def _predicate(self, evaluator):
        def evaluate(sub):
            if self.leaf_depth:
                self.counts["solver.leaf_candidates"] += 1
                return evaluator(sub)
            self.counts["solver.pred_calls"] += 1
            parent = self.stack[-1] if self.stack else -1
            start = time.perf_counter_ns()
            try:
                return evaluator(sub)
            finally:
                self.spans.append(["solver.predicate", start, time.perf_counter_ns(), parent, self.query_id])

        return evaluate

    def _layering_check(self, fn):
        def is_layering(*args, **kwargs):
            valid = fn(*args, **kwargs)
            self.counts["width.layerings_tried"] += 1
            self.counts["width.layerings_valid"] += bool(valid)
            return valid

        return is_layering

    # --- patching --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for module_name in MODULES:
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        for (module_name, attr), span in SPANNED.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            self._replace_everywhere(original, self._spanned(span, original))
        width_module = sys.modules["sdkit.width"]  # sdkit.width is the width() function
        self._replace_everywhere(width_module.is_layering, self._layering_check(width_module.is_layering))
        solver = sys.modules["sdkit.solver"]
        for name, predicate in list(solver.PREDICATES.items()):
            traced = dataclasses.replace(predicate, evaluator=self._predicate(predicate.evaluator))
            self._replace_everywhere(predicate, traced)
            solver.PREDICATES[name] = traced
            self.patched.append((solver.PREDICATES, name, predicate))

    def uninstall(self):
        for target, attr, original in reversed(self.patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self.patched.clear()

    # --- results ---------------------------------------------------------

    def self_times_ns(self):
        """Per span name: (total self ns, span count)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = defaultdict(lambda: [0, 0])
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            totals[name][0] += end - start - inner
            totals[name][1] += 1
        return totals

    def metrics(self) -> dict:
        totals = self.self_times_ns()
        out = {}
        for metric, names in SELF_MS.items():
            out[metric] = sum(totals[n][0] for n in names if n in totals) / 1e6
        for metric, name in CALLS.items():
            out[metric] = totals[name][1] if name in totals else 0
        for key in (
            "solver.leaf_candidates",
            "solver.leaf_entries",
            "solver.pair_compositions",
            "solver.pred_calls",
            "solver.table_final",
            "width.layerings_tried",
            "width.layerings_valid",
        ):
            out[key] = self.counts[key]
        out["solver.table_max"] = self.table_max
        pairs = out["solver.pair_compositions"]
        out["solver.pred_cache_hit_ratio"] = 1 - out["solver.pred_calls"] / pairs if pairs else 0.0
        tried = out["width.layerings_tried"]
        out["width.layering_valid_ratio"] = out["width.layerings_valid"] / tried if tried else 0.0
        query_ns = sum(end - start for name, start, end, _, _ in self.spans if name == QUERY)
        named_ms = sum(out[m] for m in SELF_MS)
        out["trace.coverage"] = named_ms / (query_ns / 1e6) if query_ns else 0.0
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "query"], "spans": self.spans}, handle)
