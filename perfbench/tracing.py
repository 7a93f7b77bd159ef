"""Spans around the calls one orepack module makes into another.

The tracer replaces a module attribute with a wrapper, so a call that the
calling module makes by that name records a span: name, start, end,
parent span and task. Spans stay in memory; ``layer_metrics`` turns them
into per-layer self times and counts, and ``dump`` writes them out.
"""

from __future__ import annotations

import json
import time

# (calling module, attribute) -> (layer, count taken from the result).
# A span's self time is charged to its layer; a count is summed.
WRAPPED = {
    ("cli", "main"): ("cli", None),
    ("cli", "parse_graph_text"): ("graphs.parse", None),
    ("cli", "parse_graph6"): ("graphs.parse", None),
    ("extremal", "min_ore_degree_sum"): ("graphs.ore_sum", None),
    ("probes", "min_ore_degree_sum"): ("graphs.ore_sum", None),
    ("parameters", "optimal_colorings"): ("coloring.enum", len),
    ("coloring", "chromatic_number"): ("coloring.chromatic", None),
    ("parameters", "chromatic_number"): ("coloring.chromatic", None),
    ("extremal", "chromatic_number"): ("coloring.chromatic", None),
    ("cli", "full_report"): ("parameters.report", None),
    ("parameters", "colour_extension_number"): ("parameters.ce", None),
    ("extremal", "colour_extension_number"): ("parameters.ce", None),
    ("cli", "has_perfect_packing"): ("packing.search", lambda r: r.nodes),
    ("cli", "copy_covering_vertex"): ("packing.search", lambda r: r.nodes),
    ("extremal", "copy_covering_vertex"): ("packing.search", lambda r: r.nodes),
    ("probes", "has_perfect_packing"): ("packing.search", lambda r: r.nodes),
    ("cli", "verify_packing"): ("packing.check", None),
    ("extremal", "verify_lower_bound"): ("extremal.verify", None),
    ("extremal", "construct_prop2"): ("extremal.construct", None),
    ("extremal", "construct_fdiamond"): ("extremal.construct", None),
    ("extremal", "construct_hdiamond"): ("extremal.construct", None),
    ("probes", "run_probe"): ("probes.probe", None),
}

# per-layer metric -> (layer, what): self time in ms, span count, or the
# summed result count, each divided by the number of tasks attempted
LAYER_METRICS = {
    "cli.self_ms": ("cli", "ms"),
    "graphs.parse_ms": ("graphs.parse", "ms"),
    "graphs.parse_calls": ("graphs.parse", "calls"),
    "graphs.ore_sum_ms": ("graphs.ore_sum", "ms"),
    "coloring.enum_ms": ("coloring.enum", "ms"),
    "coloring.enum_calls": ("coloring.enum", "calls"),
    "coloring.partitions": ("coloring.enum", "count"),
    "coloring.chromatic_ms": ("coloring.chromatic", "ms"),
    "coloring.chromatic_calls": ("coloring.chromatic", "calls"),
    "parameters.ce_ms": ("parameters.ce", "ms"),
    "parameters.ce_calls": ("parameters.ce", "calls"),
    "parameters.report_ms": ("parameters.report", "ms"),
    "packing.search_ms": ("packing.search", "ms"),
    "packing.nodes": ("packing.search", "count"),
    "packing.check_ms": ("packing.check", "ms"),
    "extremal.verify_ms": ("extremal.verify", "ms"),
    "extremal.construct_ms": ("extremal.construct", "ms"),
    "probes.probe_ms": ("probes.probe", "ms"),
}


class Tracer:
    """Records nested spans on one thread; ``task`` names the task that
    the next spans belong to."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[list] = []  # [name, layer, start, end, parent, task, count]
        self.stack: list[int] = []
        self.task = "setup"

    def install(self, modules: dict) -> None:
        """Wrap every attribute in WRAPPED on the given module objects,
        keyed by their short names (``cli``, ``parameters``, ...)."""
        for (mod, attr), (layer, counter) in WRAPPED.items():
            target = modules[mod]
            setattr(target, attr, self._wrap(f"{mod}.{attr}", layer, counter, getattr(target, attr)))

    def _wrap(self, name, layer, counter, fn):
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.task, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(result)
            return result

        return traced

    def layer_metrics(self, factors: dict, attempted: int) -> dict:
        """Per-layer metrics: self times in ms, each corrected by the drift
        factor of its span's task, span counts and result counts, each
        divided by ``attempted``."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, task, count in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ms, calls, counts = {}, {}, {}
        for i, (name, layer, start, end, parent, task, count) in enumerate(self.spans):
            ms[layer] = ms.get(layer, 0.0) + (end - start - child[i]) * factors[task] * 1000
            calls[layer] = calls.get(layer, 0) + 1
            counts[layer] = counts.get(layer, 0) + count
        out = {}
        for metric, (layer, what) in LAYER_METRICS.items():
            total = {"ms": ms, "calls": calls, "count": counts}[what].get(layer, 0)
            out[metric] = total / attempted
        search_s = ms.get("packing.search", 0.0) / 1000
        out["packing.nodes_per_s"] = counts.get("packing.search", 0) / search_s if search_s else 0.0
        return out

    def nodes_by_group(self, groups: dict) -> dict:
        """Median packing nodes per task of each task group."""
        per_task: dict = {}
        for name, layer, start, end, parent, task, count in self.spans:
            if layer == "packing.search":
                per_task[task] = per_task.get(task, 0) + count
        by_group: dict = {}
        for task, group in groups.items():
            by_group.setdefault(group, []).append(per_task.get(task, 0))
        return {group: sorted(v)[len(v) // 2] for group, v in by_group.items()}

    def dump(self, path: str) -> None:
        keys = ("name", "layer", "start", "end", "parent", "task", "count")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
