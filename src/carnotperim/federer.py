"""Blow-up densities of the surface perimeter at shrinking radii.

Two quantities are tracked along a decreasing radius schedule:

* the off-centred density: for each radius t, the largest
  sigma(B(y,t)) / t^(Q-1) over centres y = x * delta_t(s * nu / |nu|) on
  the normal line through x, |s| <= 1; and
* the centred density: the same ratio at y = x.

The blow-up limit of the ratio depends on the centre only through the
offset <w1, nu> of y = x * delta_t(w), by the translation argument that
reduces beta to a max over t, so the sup over the normal line has the same
limit as the sup over all of B(x, t).  At a finite radius it is a lower
bound of that sup, equal to it when the ball's support in the directions
+-nu lies on the nu axis: for koranyi, dinf and starball in every
direction, for aniso only along the coordinate axes, and never for twoball.
Off the axes aniso's line falls short: at aniso:scale=2 and
nu = (1,1)/sqrt 2 on H^1 it reaches the offset 1/||(nu,0)|| = 0.632, while
the slice support is |W^-1 nu| = 0.791.

At each radius a 21-point scan of the line is scored on one frozen sample
cloud (common random numbers), and the chosen centre is rescored on a fresh
cloud over its ball alone, so the reported ratio carries no winner's-curse
bias.  The tail of the schedule is extrapolated by inverse-variance
averaging; no convergence rate is assumed.

A radius whose patch is refused (RegionError; in practice the largest ones)
is skipped, which keeps the small radii the blow-up limit and the tail
average depend on; ``truncated`` flags that some radius was refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import RegionError
from .gauges import Gauge
from .groups import Point, embed_v1
from .mc import Estimate
from .surfaces import SurfaceSpec, ratio_on_cloud, sample_patch

SCAN = np.linspace(-1.0, 1.0, 21)  # offsets s on the normal line; SCAN[10] == 0
# search clouds draw on substreams (seed, k, attempt, batch), rescore clouds
# on (seed, k, RESCORE_KEY, attempt, batch): no stream is shared
RESCORE_KEY = 1


@dataclass(frozen=True)
class DensitySchedule:
    """Radius schedule and sample budget for density runs."""

    radii: tuple
    samples_per_ball: int = 200_000
    seed: int = 7

    def __post_init__(self):
        radii = tuple(float(t) for t in self.radii)
        if not radii:
            raise ValueError("a density schedule needs at least one radius")
        if any(t <= 0 for t in radii):
            raise ValueError("radii must be positive")
        if list(radii) != sorted(radii, reverse=True) or len(set(radii)) != len(radii):
            raise ValueError("radii must be strictly decreasing")
        object.__setattr__(self, "radii", radii)


def default_schedule(
    t0: float = 0.4,
    halvings: int = 6,
    samples_per_ball: int = 200_000,
    seed: int = 7,
) -> DensitySchedule:
    """Dyadic schedule t0 * 2^-k for k = 0..halvings."""
    radii = tuple(t0 * 2.0**-k for k in range(halvings + 1))
    return DensitySchedule(radii, samples_per_ball, seed)


@dataclass(frozen=True)
class RadiusRecord:
    t: float
    ratio: float
    stderr: float
    centered_ratio: float
    centered_stderr: float
    best_w: tuple  # offset s * unit on the normal line; the centre is x * delta_t(w)
    best_center: tuple
    n_samples: int  # per cloud
    failures: int  # bracket failures, both clouds
    expansions: int  # parameter-box expansions, both clouds

    def as_dict(self):
        return {
            "t": self.t,
            "ratio": self.ratio,
            "stderr": self.stderr,
            "centered_ratio": self.centered_ratio,
            "centered_stderr": self.centered_stderr,
            "best_w": list(self.best_w),
            "best_center": list(self.best_center),
            "n_samples": self.n_samples,
            "failures": self.failures,
            "expansions": self.expansions,
        }


@dataclass(frozen=True)
class DensityReport:
    surface: str
    gauge: str
    point: tuple
    records: tuple
    running_sup: tuple  # suffix maxima of the best ratios (tail sups)
    extrapolated_theta: Estimate
    centered_extrapolated: Estimate
    tail_converged: bool
    truncated: bool  # at least one radius was refused and skipped
    seed: int

    def as_dict(self):
        return {
            "surface": self.surface,
            "gauge": self.gauge,
            "point": list(self.point),
            "records": [r.as_dict() for r in self.records],
            "running_sup": list(self.running_sup),
            "extrapolated_theta": self.extrapolated_theta.as_dict(),
            "centered_extrapolated": self.centered_extrapolated.as_dict(),
            "tail_converged": self.tail_converged,
            "truncated": self.truncated,
            "seed": self.seed,
        }


def federer_density(
    spec: SurfaceSpec,
    gauge: Gauge,
    x: Point | None = None,
    sched: DensitySchedule | None = None,
) -> DensityReport:
    """Off-centered blow-up density of the surface perimeter at spec.x.

    Radii whose patch is refused (RegionError) are skipped and the report is
    flagged truncated; the run raises RegionError only when every radius is
    refused.  x, when given, must be the surface's base point; the centred
    density is the report's centered_extrapolated.
    """
    if sched is None:
        sched = default_schedule()
    if x is not None and not np.allclose(np.asarray(x, float), spec.x, atol=1e-9):
        raise ValueError("the graph parametrization is anchored at its base point")
    e1 = embed_v1(spec.model, spec.nu0)
    unit = e1 / gauge.norm(e1)

    records = []
    for k, t in enumerate(sched.radii):
        try:
            records.append(_radius_record(spec, gauge, t, sched, k, unit))
        except RegionError:
            pass
    if not records:
        raise RegionError("no radius in the schedule produced a usable region")

    running = []
    acc = -math.inf
    for r in reversed(records):
        acc = max(acc, r.ratio)
        running.append(acc)
    running.reverse()

    extrap = _tail_average([(r.ratio, r.stderr, r.n_samples) for r in records], sched.seed)
    centered_extrap = _tail_average(
        [(r.centered_ratio, r.centered_stderr, r.n_samples) for r in records], sched.seed
    )
    tail = records[-3:]
    converged = all(
        abs(a.ratio - b.ratio) <= 3.0 * math.hypot(a.stderr, b.stderr)
        for i, a in enumerate(tail)
        for b in tail[i + 1 :]
    )
    return DensityReport(
        spec.name,
        gauge.spec_string(),
        tuple(spec.x.tolist()),
        tuple(records),
        tuple(running),
        extrap,
        centered_extrap,
        converged,
        len(records) < len(sched.radii),
        sched.seed,
    )


def _radius_record(spec, gauge, t, sched, k, unit):
    """One radius of the schedule, on a search cloud and a rescore cloud.

    The centres y = x * delta_t(s * unit), s on SCAN and unit the horizontal
    normal scaled to gauge norm 1, lie in B(x, t).  All are scored on one
    search cloud (common random numbers).  The pick is the smallest |s| whose
    score is within one stderr of the best, so noise alone does not pull it
    off the centre.  The search cloud is then released, and the pick's ratio
    and stderr come from a fresh cloud over the reach (1 + |s|) t of B(y, t)
    alone, on its own substream: a max over candidates never reaches the
    report, so the ratio carries no selection bias.  The centred ratio is the
    search cloud's score at s = 0.
    """
    model = spec.model
    cloud = sample_patch(spec, gauge, t, sched.samples_per_ball, seed=sched.seed, key=(k,))
    n, failures, expansions = cloud.n_samples, cloud.failures, cloud.expansions
    offsets = [model.identity() if s == 0.0 else s * unit for s in SCAN]
    centres = [model.multiply(spec.x, model.dilate(t, w)) for w in offsets]
    scores = [ratio_on_cloud(cloud, gauge, y, spec) for y in centres]
    del cloud  # never held alongside the rescore cloud
    c0, s0 = scores[len(SCAN) // 2]
    best, best_se = max(scores)
    pick = min((i for i, (v, _) in enumerate(scores) if v >= best - best_se),
               key=lambda i: (abs(SCAN[i]), -scores[i][0]))
    w, y = offsets[pick], centres[pick]
    fresh = sample_patch(spec, gauge, t, sched.samples_per_ball, seed=sched.seed,
                         key=(k, RESCORE_KEY), reach=(1.0 + abs(SCAN[pick])) * t)
    ratio, se = ratio_on_cloud(fresh, gauge, y, spec)
    failures += fresh.failures
    expansions += fresh.expansions
    return RadiusRecord(
        t, ratio, se, c0, s0, tuple(w.tolist()), tuple(y.tolist()), n, failures, expansions,
    )


def _tail_average(estimates, seed, tail: int = 3):
    """Inverse-variance weighted mean of the last few (value, stderr,
    n_samples) triples; its sample count is theirs in total."""
    tail_est = estimates[-tail:]
    weights = []
    for v, s, _ in tail_est:
        weights.append(1.0 / max(s * s, 1e-30))
    wsum = sum(weights)
    value = sum(w * v for w, (v, s, _) in zip(weights, tail_est)) / wsum
    stderr = math.sqrt(1.0 / wsum)
    return Estimate(value, stderr, sum(n for _, _, n in tail_est), seed)
