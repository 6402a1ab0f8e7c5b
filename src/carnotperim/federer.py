"""Blow-up densities of the surface perimeter at shrinking radii.

Two quantities are tracked along a decreasing radius schedule:

* the off-centered density: for each radius t, the maximum of
  sigma(B(y,t)) / t^(Q-1) over centers y in B(x, t), located by a
  derivative-free pattern search over w with y = x * delta_t(w); and
* the centered density: the same ratio at y = x.

At each radius a single sample cloud is frozen and every candidate center is
scored against it (common random numbers), so candidate comparisons carry no
independent noise and the centered ratio can never exceed the best ratio on
the same cloud.  The tail of the schedule is extrapolated by inverse-variance
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
from .groups import Point
from .mc import Estimate, ordered_map, substream
from .surfaces import SurfaceSpec, ratio_on_cloud, sample_patch

PATTERN_STEP0 = 0.35
PATTERN_MIN_STEP = 0.02


@dataclass(frozen=True)
class DensitySchedule:
    """Radius schedule and search budget for density runs."""

    radii: tuple
    multistart_count: int = 5
    local_steps: int = 24
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
    multistart_count: int = 5,
    local_steps: int = 24,
) -> DensitySchedule:
    """Dyadic schedule t0 * 2^-k for k = 0..halvings."""
    radii = tuple(t0 * 2.0**-k for k in range(halvings + 1))
    return DensitySchedule(radii, multistart_count, local_steps, samples_per_ball, seed)


@dataclass(frozen=True)
class RadiusRecord:
    t: float
    ratio: float
    stderr: float
    centered_ratio: float
    centered_stderr: float
    best_w: tuple  # offset in the unit ball; the center is x * delta_t(w)
    best_center: tuple
    n_samples: int
    failures: int

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
    workers: int = 1,
) -> DensityReport:
    """Off-centered blow-up density of the surface perimeter at spec.x.

    Radii whose patch is refused (RegionError) are skipped and the report is
    flagged truncated; the run raises RegionError only when every radius is
    refused.
    """
    return _density(spec, gauge, x, sched, workers, optimize=True)


def centered_density(
    spec: SurfaceSpec,
    gauge: Gauge,
    x: Point | None = None,
    sched: DensitySchedule | None = None,
    workers: int = 1,
) -> Estimate:
    """Centered blow-up density: the ratio at y = spec.x, tail-extrapolated.

    Refused radii are skipped as in federer_density.
    """
    return _density(spec, gauge, x, sched, workers, optimize=False).centered_extrapolated


def _density(spec, gauge, x, sched, workers, optimize):
    """DensityReport over sched (None: the default), refused radii skipped.

    x, when given, must be the surface's base point.  Without optimize only
    the centre is scored.
    """
    if sched is None:
        sched = default_schedule()
    if x is not None and not np.allclose(np.asarray(x, float), spec.x, atol=1e-9):
        raise ValueError("the graph parametrization is anchored at its base point")

    def one_radius(item):
        k, t = item
        try:
            return _radius_record(spec, gauge, t, sched, k, optimize)
        except RegionError:
            return None

    raw = ordered_map(one_radius, list(enumerate(sched.radii)), workers)
    records = [r for r in raw if r is not None]
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
        len(records) < len(raw),
        sched.seed,
    )


def _radius_record(spec, gauge, t, sched, k, optimize):
    cloud = sample_patch(spec, gauge, t, sched.samples_per_ball, seed=sched.seed, key=(k,))
    model = spec.model

    def score(w):
        y = model.multiply(spec.x, model.dilate(t, w))
        return ratio_on_cloud(cloud, gauge, y, spec)

    w0 = model.identity()
    c0, s0 = score(w0)
    best_w, best, best_se = w0, c0, s0
    if optimize:
        starts = [w0] + _ball_starts(gauge, sched.multistart_count - 1, sched.seed, k)
        for w_start in starts:
            w, val, se = _pattern_search(score, w_start, gauge, sched.local_steps)
            if val > best:
                best_w, best, best_se = w, val, se
    y_best = model.multiply(spec.x, model.dilate(t, best_w))
    return RadiusRecord(
        t, best, best_se, c0, s0, tuple(best_w.tolist()), tuple(y_best.tolist()),
        cloud.n_samples, cloud.failures,
    )


def _ball_starts(gauge, count, seed, k):
    if count <= 0:
        return []
    rng = substream(seed, k, 777)
    hw = gauge.ball_box_halfwidths(1.0)
    out = []
    for _ in range(200):
        draw = rng.uniform(-1.0, 1.0, size=(max(4 * count, 16), gauge.model.n)) * hw
        for w in draw[gauge.in_ball(draw)]:
            out.append(w)
            if len(out) == count:
                return out
    return out  # degenerate ball: search just falls back to fewer starts


def _clamp_to_ball(gauge, pts):
    """The rows of pts, each dilated into the unit ball when outside it.

    One norm_many call for all rows; a batched norm equals the one-row norm
    bit for bit.
    """
    norms = gauge.norm_many(pts)
    return [gauge.model.dilate(1.0 / nw, w) if nw > 1.0 else w for w, nw in zip(pts, norms)]


def _pattern_search(score, w0, gauge, budget):
    """Compass search on the center offset w, clamped to the unit ball.

    The objective is deterministic on the frozen cloud, so plain greedy
    moves are reliable; no gradients exist through the hit indicator.  An
    improving move goes on to the next coordinate from the new w, so only
    the +/- pair of one coordinate is known in advance and clamped together.
    """
    model = gauge.model
    (w,) = _clamp_to_ball(gauge, np.asarray(w0, dtype=float)[None])
    val, se = score(w)
    step = PATTERN_STEP0
    evals = 0
    while evals < budget and step >= PATTERN_MIN_STEP:
        improved = False
        for j in range(model.n):
            pair = np.stack([w, w])
            pair[:, j] += (step, -step)
            for cand in _clamp_to_ball(gauge, pair):
                cval, cse = score(cand)
                evals += 1
                if cval > val:
                    w, val, se = cand, cval, cse
                    improved = True
                    break
                if evals >= budget:
                    break
            if evals >= budget:
                break
        if not improved:
            step *= 0.5
    return w, val, se


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
