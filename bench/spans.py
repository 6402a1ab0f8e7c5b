"""Span tracing of carnotperim's entry points, installed from outside the package.

A Tracer replaces each traced function or method with a wrapper that
records a span: name, start, end, parent span and run id, plus row, sample
and hit counts read from the arguments or the result.  Module-level
functions are replaced in every carnotperim module that holds them (so
``carnotperim.beta.slice_area`` is traced as well as
``carnotperim.slices.slice_area``); methods are replaced on every class that
defines them.  ``restore`` puts every original back.  Spans stay in memory
until the run ends.  Wrappers keep one stack, so tracing needs ``--workers 1``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np


def _rows_out(args, kwargs, result):
    # arrays of points (..., n): one row per point
    shape = np.shape(result)
    return {"rows": int(np.prod(shape[:-1], dtype=np.int64))}


def _rows_values(args, kwargs, result):
    return {"rows": int(np.size(result))}


def _in_ball_counts(args, kwargs, result):
    return {"rows": int(np.size(result)), "hits": int(np.count_nonzero(result))}


def _graph_heights_counts(args, kwargs, result):
    return {"rows": int(np.size(result[0]))}


def _patch_counts(args, kwargs, result):
    return {"samples": result.n_samples, "expansions": result.expansions}


def _slice_counts(args, kwargs, result):
    return {"samples": result.n_samples}


def _density_counts(args, kwargs, result):
    return {"radii": len(result.records)}


def _beta_counts(args, kwargs, result):
    gauge = args[0] if args else kwargs["gauge"]
    return {
        "convex": int(gauge.declared_convex),
        "fast": int(gauge.declared_convex and result.method == "convex_fast_path"),
    }


# (span name, module, class or None, attribute, counter)
TARGETS = (
    ("cli.main", "carnotperim.cli", None, "main", None),
    ("groups.multiply", "carnotperim.groups", "GroupModel", "multiply", _rows_out),
    ("groups.bracket_v1", "carnotperim.groups", "GroupModel", "bracket_v1", _rows_out),
    ("gauges.norm_many", "carnotperim.gauges", "Gauge", "norm_many", _rows_values),
    ("gauges.in_ball", "carnotperim.gauges", "Gauge", "in_ball", _in_ball_counts),
    ("gauges.trace_radius", "carnotperim.gauges", "Gauge", "_trace_radius", None),
    ("gauges.star_norm", "carnotperim.gauges", None, "star_norm", _rows_values),
    ("gauges.validate", "carnotperim.gauges", None, "validate", None),
    ("gauges.convexity_sample", "carnotperim.gauges", None, "convexity_sample", None),
    ("surfaces.sample_patch", "carnotperim.surfaces", None, "sample_patch", _patch_counts),
    ("surfaces.graph_heights", "carnotperim.surfaces", None, "_graph_heights",
     _graph_heights_counts),
    ("surfaces.ratio_on_cloud", "carnotperim.surfaces", None, "ratio_on_cloud", None),
    ("federer.federer_density", "carnotperim.federer", None, "federer_density",
     _density_counts),
    ("slices.slice_area", "carnotperim.slices", None, "slice_area", _slice_counts),
    ("slices.support_radius", "carnotperim.slices", None, "support_radius", None),
    ("mc.substream", "carnotperim.mc", None, "substream", None),
    ("beta.beta", "carnotperim.beta", None, "beta", _beta_counts),
    ("verify.convexity_check", "carnotperim.verify", None, "convexity_check", None),
    ("verify.symmetry_check", "carnotperim.verify", None, "symmetry_check", None),
    ("verify.busemann_suite", "carnotperim.verify", None, "busemann_suite", None),
    ("verify.blowup_suite", "carnotperim.verify", None, "blowup_suite", None),
)

# parents by which gauges.in_ball hit fractions are split; the rest is "other"
IN_BALL_PARENTS = (
    "slices.slice_area",
    "slices.support_radius",
    "surfaces.sample_patch",
    "surfaces.ratio_on_cloud",
    "gauges.trace_radius",
)


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    self_s: float  # duration minus the time direct child spans cover
    counts: dict  # rows, samples, hits, ... as the target's counter reports them


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []  # open spans: [sid, time covered by children]
        self._next = 0
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, name, parent, start)
                raise
            counts = tracer._close(frame, name, parent, start)
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        return traced

    def _close(self, frame, name, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        counts = {}
        self.spans.append(Span(frame[0], name, start, end, parent, dur - frame[1], counts))
        return counts

    def install(self):
        """Wrap every target; the package must already be imported."""
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "carnotperim" or n.startswith("carnotperim."))]
        for name, module, cls_name, attr, count in TARGETS:
            mod = sys.modules[module]
            if cls_name is None:
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original, count)
                for m in package:
                    if vars(m).get(attr) is original:
                        self._patch(m, attr, wrapper)
            else:
                for cls in _class_tree(getattr(mod, cls_name)):
                    if attr in vars(cls):
                        self._patch(cls, attr, self._wrap(name, vars(cls)[attr], count))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "self_s": s.self_s, "counts": s.counts,
                }) + "\n")


def _class_tree(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_class_tree(sub))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one traced run (see PER_LAYER for their meaning)."""
    names = {s.sid: s.name for s in spans}
    agg = {}
    for s in spans:
        a = agg.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["s"] += s.end - s.start
        a["self_s"] += s.self_s
        for k, v in s.counts.items():
            a[k] = a.get(k, 0) + v
    split = {p: [0, 0] for p in IN_BALL_PARENTS + ("other",)}
    for s in spans:
        if s.name == "gauges.in_ball" and s.counts:
            parent = names.get(s.parent)
            acc = split[parent if parent in split else "other"]
            acc[0] += s.counts["hits"]
            acc[1] += s.counts["rows"]

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    # "<span name>.<field>" metrics read the aggregate directly
    span_names = {t[0] for t in TARGETS}
    out = {}
    for key in PER_LAYER:
        name, _, field = key.rpartition(".")
        if name in span_names:
            out[key] = get(name, field)
    out["cli.self_s"] = get("cli.main", "self_s")
    out["surfaces.ratio_on_cloud.hit_frac"] = _ratio(*split["surfaces.ratio_on_cloud"])
    out["federer.radii_completed"] = get("federer.federer_density", "radii")
    out["federer.score_evals_per_radius"] = _ratio(
        get("surfaces.ratio_on_cloud", "calls"), get("federer.federer_density", "radii"))
    out["gauges.in_ball.hit_frac"] = _ratio(get("gauges.in_ball", "hits"),
                                            get("gauges.in_ball", "rows"))
    for parent, (hits, rows) in split.items():
        out["gauges.in_ball.hit_frac." + parent] = _ratio(hits, rows)
    out["slices.slice_area.samples_per_s"] = _ratio(get("slices.slice_area", "samples"),
                                                    get("slices.slice_area", "s"))
    out["beta.fast_path_frac"] = _ratio(get("beta.beta", "fast"), get("beta.beta", "convex"))
    return out


# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload the metric should move).  federer.theta_z and trace.overhead_s are
# added by run.py, from the gates and from the untraced run.
_GROUPS = "wall_s on blowup; a little on verify-star; none on slices"
_BLOWUP = "wall_s on blowup"
_DENSITY = "mc_efficiency on blowup"
_STAR = "wall_s on verify-star; none on slices or blowup"
_MEMBERSHIP = "wall_s on slices and blowup"
_SLICES = "wall_s and mc_efficiency on slices; none on blowup"
_VERIFY = "wall_s on verify-star"
PER_LAYER = {
    "groups.multiply.calls": ("count", "lower", _GROUPS),
    "groups.multiply.rows": ("count", "lower", _GROUPS),
    "groups.multiply.self_s": ("s", "lower", _GROUPS),
    "groups.bracket_v1.self_s": ("s", "lower", _GROUPS),
    "surfaces.graph_heights.rows": ("count", "lower", _BLOWUP),
    "surfaces.graph_heights.self_s": ("s", "lower", _BLOWUP),
    "surfaces.sample_patch.calls": ("count", "lower", _BLOWUP),
    "surfaces.sample_patch.samples": ("count", "lower", _BLOWUP),
    "surfaces.sample_patch.expansions": ("count", "lower",
                                         "wall_s, mc_efficiency and peak_rss_mb on blowup"),
    "surfaces.sample_patch.self_s": ("s", "lower", _BLOWUP),
    "surfaces.ratio_on_cloud.calls": ("count", "lower", _BLOWUP),
    "surfaces.ratio_on_cloud.self_s": ("s", "lower", _BLOWUP),
    "surfaces.ratio_on_cloud.hit_frac": ("fraction", "higher", _BLOWUP),
    "federer.federer_density.s": ("s", "lower", _DENSITY),
    "federer.score_evals_per_radius": ("count", "lower", _DENSITY),
    "federer.radii_completed": ("count", "higher", _DENSITY),
    "federer.theta_z": ("se", "lower", _DENSITY),
    "gauges.star_norm.rows": ("count", "lower", _STAR),
    "gauges.star_norm.self_s": ("s", "lower", _STAR),
    "gauges.trace_radius.calls": ("count", "lower", _STAR),
    "gauges.trace_radius.s": ("s", "lower", _STAR),
    "gauges.norm_many.calls": ("count", "lower", _MEMBERSHIP),
    "gauges.norm_many.rows": ("count", "lower", _MEMBERSHIP),
    "gauges.norm_many.self_s": ("s", "lower", _MEMBERSHIP),
    "gauges.in_ball.calls": ("count", "lower", _MEMBERSHIP),
    "gauges.in_ball.rows": ("count", "lower", _MEMBERSHIP),
    "gauges.in_ball.self_s": ("s", "lower", _MEMBERSHIP),
    "gauges.in_ball.hit_frac": ("fraction", "higher", _MEMBERSHIP),
    **{
        "gauges.in_ball.hit_frac." + p: ("fraction", "higher", _MEMBERSHIP)
        for p in IN_BALL_PARENTS + ("other",)
    },
    "slices.slice_area.calls": ("count", "lower", _SLICES),
    "slices.slice_area.samples": ("count", "lower", _SLICES),
    "slices.slice_area.self_s": ("s", "lower", _SLICES),
    "slices.slice_area.samples_per_s": ("1/s", "higher", _SLICES),
    "slices.support_radius.s": ("s", "lower", _SLICES),
    "mc.substream.calls": ("count", "lower", _SLICES),
    "mc.substream.self_s": ("s", "lower", _SLICES),
    "beta.beta.calls": ("count", "lower", "wall_s on slices"),
    "beta.fast_path_frac": ("fraction", "higher", "wall_s on slices; stays 1.0 for koranyi"),
    "gauges.validate.s": ("s", "lower",
                          "wall_s on slices (the CLI gauge guard); verify never calls it"),
    "gauges.convexity_sample.s": ("s", "lower", _VERIFY),
    "verify.convexity_check.s": ("s", "lower", _VERIFY),
    "verify.symmetry_check.s": ("s", "lower", _VERIFY),
    "verify.busemann_suite.s": ("s", "lower", _VERIFY),
    "verify.blowup_suite.s": ("s", "lower", _VERIFY),
    "cli.self_s": ("s", "lower", "wall_s and setup_s on all workloads"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall time"),
}
