"""Spans around the public calls into each kleindim module.

Tracing works from outside the package: each module attribute that a
caller looks up at call time is replaced by a wrapper that records a
span (name, start, end, parent, counters) and is restored afterwards.
`HnnPresentation.multiply` runs about a million times per enumeration,
so its calls are summed (time and count) instead of kept as one span
each; the sum spent inside every span is kept so self times stay exact.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from kleindim import _core, dimension, growth, hnn, report, subgroup, surface

_ROW_BYTES = 64  # one (a, b, c, d) complex128 row


def _ball_counts(args, kwargs, ball):
    return {"elements": len(ball), "band_dropped": ball.skipped,
            "truncated": int(ball.truncated), "collisions": ball.collisions}


def _expand_counts(args, kwargs, out):
    frontier, gens = args
    # computed, not measured: inputs read once, products written once
    return {"rows": len(out),
            "bytes": (len(frontier) + len(gens) + len(out)) * _ROW_BYTES}


def _sample_counts(args, kwargs, sample):
    return {"points": sample.count, "offered": len(args[0])}


def _tree_counts(args, kwargs, tree):
    return {"nodes": len(tree)}


# (module, attribute, span name, counters): every place a workload or a
# kleindim module looks one of these functions up
PATCHES = [
    (report, "run_pipeline", "report.run_pipeline", None),
    (report, "write_report", "report.write_report", None),
    (report, "render_limit_set", "report.render_limit_set", None),
    (report, "fn_surface_rep", "surface.fn_surface_rep", None),
    (report, "collar_width", "surface.collar_width", None),
    (report, "build_hnn", "hnn.build_hnn", None),
    (report, "qi_constants", "growth.qi_constants", None),
    (report, "build_strata_tree", "growth.build_strata_tree", _tree_counts),
    (report, "leaf_count_check", "growth.leaf_count_check", None),
    (report, "enumerate_ball", "subgroup.enumerate_ball", _ball_counts),
    (report, "sample_limit_set", "dimension.sample_limit_set", _sample_counts),
    (report, "merge_samples", "dimension.merge_samples", None),
    (report, "box_dimension", "dimension.box_dimension", None),
    (report, "critical_exponent", "dimension.critical_exponent", None),
    (surface, "fn_surface_rep", "surface.fn_surface_rep", None),
    (surface, "collar_width", "surface.collar_width", None),
    (surface, "enumerate_ball", "subgroup.enumerate_ball", _ball_counts),
    (hnn, "build_hnn", "hnn.build_hnn", None),
    (growth, "build_strata_tree", "growth.build_strata_tree", _tree_counts),
    (growth, "leaf_count_check", "growth.leaf_count_check", None),
    (growth, "qi_constants", "growth.qi_constants", None),
    (growth, "enumerate_ball", "subgroup.enumerate_ball", _ball_counts),
    (subgroup, "enumerate_ball", "subgroup.enumerate_ball", _ball_counts),
    (dimension, "sample_limit_set", "dimension.sample_limit_set", _sample_counts),
    (dimension, "component_analysis", "dimension.component_analysis", None),
    (_core, "expand", "core.expand", _expand_counts),
    (_core, "displacements", "core.displacements", None),
]

# Per-layer metrics in BENCHMARK.json order: (name, unit)
LAYER_METRICS = [
    ("surface.fn_surface_rep_s", "s"),
    ("surface.collar_width_s", "s"),
    ("surface.collar_width_calls", "count"),
    ("hnn.build_hnn_s", "s"),
    ("hnn.multiply_s", "s"),
    ("hnn.multiply_calls", "count"),
    ("core.expand_s", "s"),
    ("core.expand_rows", "count"),
    ("core.expand_bytes_computed", "bytes"),
    ("core.displacements_s", "s"),
    ("subgroup.enumerate_ball_s", "s"),
    ("subgroup.enumerate_ball_calls", "count"),
    ("subgroup.elements", "count"),
    ("subgroup.band_dropped", "count"),
    ("subgroup.kept_ratio", "ratio"),
    ("subgroup.truncated_balls", "count"),
    ("subgroup.collisions", "count"),
    ("growth.build_strata_tree_s", "s"),
    ("growth.strata_nodes", "count"),
    ("growth.leaf_count_check_s", "s"),
    ("growth.qi_constants_s", "s"),
    ("dimension.sample_limit_set_s", "s"),
    ("dimension.sample_points", "count"),
    ("dimension.sample_yield", "ratio"),
    ("dimension.merge_samples_s", "s"),
    ("dimension.box_dimension_s", "s"),
    ("dimension.component_analysis_s", "s"),
    ("dimension.component_analysis_calls", "count"),
    ("dimension.critical_exponent_s", "s"),
    ("report.run_pipeline_s", "s"),
    ("report.write_report_s", "s"),
    ("report.render_limit_set_s", "s"),
    ("trace.round_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.span_coverage", "ratio"),
]


class Recorder:
    """Spans kept in memory: [name, start, end, parent, counters, leaf_s].

    `leaf_s` is the summed `multiply` time inside the span, children
    included.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self.multiply = [0.0, 0]  # summed seconds, calls

    def _wrap(self, name, fn, counters):
        spans, stack, leaf = self.spans, self._open, self.multiply

        def traced(*args, **kwargs):
            entry = [name, 0.0, 0.0, stack[-1] if stack else -1, None, leaf[0]]
            stack.append(len(spans))
            spans.append(entry)
            entry[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter()
                stack.pop()
                entry[5] = leaf[0] - entry[5]
            if counters is not None:
                entry[4] = counters(args, kwargs, out)
            return out

        return traced

    def _wrap_multiply(self, fn):
        acc = self.multiply
        clock = time.perf_counter

        def multiply(presentation, nf, word):
            t = clock()
            out = fn(presentation, nf, word)
            acc[0] += clock() - t
            acc[1] += 1
            return out

        return multiply

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced attribute; restore the originals on exit."""
        saved = []
        try:
            for module, attr, name, counters in PATCHES:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counters))
            fn = hnn.HnnPresentation.multiply
            saved.append((hnn.HnnPresentation, "multiply", fn))
            hnn.HnnPresentation.multiply = self._wrap_multiply(fn)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def dump(self):
        return {
            "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                       "counters": s[4], "multiply_inside_s": s[5]}
                      for s in self.spans],
            "multiply": {"seconds": self.multiply[0], "calls": self.multiply[1]},
        }


def self_times(spans):
    """Per-span self time: duration minus child spans and the summed
    multiply time that is not inside a child span."""
    child_s = [0.0] * len(spans)
    child_leaf = [0.0] * len(spans)
    for name, t0, t1, parent, _, leaf in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
            child_leaf[parent] += leaf
    return [(t1 - t0) - child_s[i] - (leaf - child_leaf[i])
            for i, (_, t0, t1, _, _, leaf) in enumerate(spans)]


def layer_metrics(recorder, round_spans_from, round_s, overhead_s):
    """Per-layer metrics from the recorded spans.

    Spans before index `round_spans_from` belong to the traced set-up;
    coverage is measured on the traced round alone.
    """
    spans = recorder.spans
    own = self_times(spans)
    secs = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(int)
    for (name, _, _, _, counters, _), s in zip(spans, own):
        secs[name] += s
        calls[name] += 1
        for key, value in (counters or {}).items():
            sums[name + "." + key] += value
    covered = sum(s[2] - s[1] for s in spans[round_spans_from:] if s[3] == -1)
    elements = sums["subgroup.enumerate_ball.elements"]
    dropped = sums["subgroup.enumerate_ball.band_dropped"]
    offered = sums["dimension.sample_limit_set.offered"]
    values = {
        "surface.fn_surface_rep_s": secs["surface.fn_surface_rep"],
        "surface.collar_width_s": secs["surface.collar_width"],
        "surface.collar_width_calls": calls["surface.collar_width"],
        "hnn.build_hnn_s": secs["hnn.build_hnn"],
        "hnn.multiply_s": recorder.multiply[0],
        "hnn.multiply_calls": recorder.multiply[1],
        "core.expand_s": secs["core.expand"],
        "core.expand_rows": sums["core.expand.rows"],
        "core.expand_bytes_computed": sums["core.expand.bytes"],
        "core.displacements_s": secs["core.displacements"],
        "subgroup.enumerate_ball_s": secs["subgroup.enumerate_ball"],
        "subgroup.enumerate_ball_calls": calls["subgroup.enumerate_ball"],
        "subgroup.elements": elements,
        "subgroup.band_dropped": dropped,
        "subgroup.kept_ratio": elements / (elements + dropped) if elements else 0.0,
        "subgroup.truncated_balls": sums["subgroup.enumerate_ball.truncated"],
        "subgroup.collisions": sums["subgroup.enumerate_ball.collisions"],
        "growth.build_strata_tree_s": secs["growth.build_strata_tree"],
        "growth.strata_nodes": sums["growth.build_strata_tree.nodes"],
        "growth.leaf_count_check_s": secs["growth.leaf_count_check"],
        "growth.qi_constants_s": secs["growth.qi_constants"],
        "dimension.sample_limit_set_s": secs["dimension.sample_limit_set"],
        "dimension.sample_points": sums["dimension.sample_limit_set.points"],
        "dimension.sample_yield": (sums["dimension.sample_limit_set.points"] / offered
                                   if offered else 0.0),
        "dimension.merge_samples_s": secs["dimension.merge_samples"],
        "dimension.box_dimension_s": secs["dimension.box_dimension"],
        "dimension.component_analysis_s": secs["dimension.component_analysis"],
        "dimension.component_analysis_calls": calls["dimension.component_analysis"],
        "dimension.critical_exponent_s": secs["dimension.critical_exponent"],
        "report.run_pipeline_s": secs["report.run_pipeline"],
        "report.write_report_s": secs["report.write_report"],
        "report.render_limit_set_s": secs["report.render_limit_set"],
        "trace.round_s": round_s,
        "trace.overhead_s": overhead_s,
        "trace.span_coverage": covered / round_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
