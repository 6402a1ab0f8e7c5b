"""The slice-area constant beta(d, nu): maximal vertical slice area.

beta(d, nu) is the maximum over parallel offsets of the slice function
psi(t; nu).  Translating ball centers along the plane has unit Jacobian, so
the max over centers in the unit ball reduces to a max over the scalar
offset t ranging over the nonempty-slice interval; that reduction is pinned
by the translation-reduction test in the slices module.

For gauges whose unit ball is convex (and certified so by the midpoint
sampler) the maximum sits at t = 0 and beta equals the central slice area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GaugeDefinitionError
from .gauges import Gauge, convexity_sample
from .groups import direction
from .mc import Estimate, joint_stderr, substream
from .slices import DEFAULT_GRID, DEFAULT_SAMPLES, slice_area, slice_profile


@dataclass(frozen=True)
class BetaResult:
    nu: np.ndarray
    value: Estimate
    argmax_t: float
    method: str  # convex_fast_path | grid_refine
    c_qm1: float  # omega / 2^(Q-1), the covering-normalization constant

    @property
    def omega(self) -> float:
        """beta itself, the ball constant for symmetric distances."""
        return self.value.value

    def as_dict(self):
        return {
            "nu": self.nu.tolist(),
            "value": self.value.as_dict(),
            "argmax_t": self.argmax_t,
            "method": self.method,
            "spherical_constant": {"omega": self.omega, "c_qm1": self.c_qm1},
        }


def beta(
    gauge: Gauge,
    nu,
    n_samples: int = DEFAULT_SAMPLES,
    grid_size: int = DEFAULT_GRID,
    seed: int = 7,
    key: tuple = (),
    refine_evals: int = 24,
    convexity_samples: int = 20000,
) -> BetaResult:
    """Estimate beta(d, nu) = max_t psi(t; nu).

    Fast path: a gauge declared convex whose midpoint sampler shows no
    violation returns the central slice area with argmax 0.  Otherwise the
    profile grid is scanned and the best point refined: golden-section inside
    a locally unimodal bracket, local grid halving otherwise.  Grid ties
    break toward the smallest |t|.
    """
    model = gauge.model
    nu = direction(model, nu)

    if gauge.declared_convex:
        nviol, _, _ = convexity_sample(gauge, convexity_samples, seed=_mix(seed, key, 101))
        if nviol == 0:
            est = slice_area(gauge, nu, 0.0, n_samples, seed=seed, key=key + (0,))
            return _result(model, nu, est, 0.0, "convex_fast_path")

    profile = slice_profile(gauge, nu, grid_size, n_samples, seed=_mix(seed, key, 202))
    vals = profile.values()
    errs = profile.stderrs()
    order = sorted(range(len(vals)), key=lambda i: (-vals[i], abs(profile.grid[i])))
    best = order[0]
    t_best = float(profile.grid[best])

    lo = float(profile.grid[max(best - 1, 0)])
    hi = float(profile.grid[min(best + 1, len(vals) - 1)])
    if _locally_unimodal(vals, errs, best):
        t_best = _golden_refine(gauge, nu, lo, hi, n_samples, _mix(seed, key, 303), refine_evals)
    else:
        t_best = _grid_halving(gauge, nu, lo, hi, n_samples, _mix(seed, key, 404), rounds=3)

    # final value from a fresh substream to avoid selection bias
    est = slice_area(gauge, nu, t_best, n_samples, seed=seed, key=key + (1,))
    center = profile.areas[len(vals) // 2]
    if est.value < center.value - 3.0 * joint_stderr(est, center):
        # the refined point must dominate the central slice; fall back to it
        est, t_best = center, 0.0
    return _result(model, nu, est, t_best, "grid_refine")


def _result(model, nu, est, t_best, method):
    return BetaResult(nu, est, t_best, method, est.value / 2.0 ** (model.Q - 1))


def _mix(seed, key, salt):
    # derived seed for an internal stage, disjoint from the caller's streams
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key) + (int(salt),))
    return int(ss.generate_state(1, np.uint64)[0] % (2**63))


def _locally_unimodal(vals, errs, best, span: int = 2):
    """Do the sampled values fall away monotonically (within noise) around best?"""
    k = len(vals)
    for step in range(1, span + 1):
        for side in (-1, 1):
            i = best + side * step
            j = best + side * (step - 1)
            if 0 <= i < k and vals[i] > vals[j] + 3.0 * (errs[i] + errs[j]):
                return False
    return True


def _golden_refine(gauge, nu, lo, hi, n_samples, seed, evals):
    """Golden-section ascent on a common-random-number slice estimator.

    The same substream is reused for every offset, so the objective is a
    deterministic function of t and the section search is well posed despite
    Monte-Carlo noise.
    """
    phi = (np.sqrt(5.0) - 1.0) / 2.0

    def f(t):
        return slice_area(gauge, nu, t, max(n_samples // 4, 1000), seed=seed, key=(7,)).value

    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max(evals - 2, 0)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return float(0.5 * (a + b))


def _grid_halving(gauge, nu, lo, hi, n_samples, seed, rounds):
    """Shrinking 5-point scans for profiles without a clean unimodal bracket."""
    for r in range(rounds):
        ts = np.linspace(lo, hi, 5)
        vals = [
            slice_area(gauge, nu, float(t), max(n_samples // 4, 1000), seed=seed, key=(r, i)).value
            for i, t in enumerate(ts)
        ]
        best = int(np.argmax(vals))
        lo = float(ts[max(best - 1, 0)])
        hi = float(ts[min(best + 1, len(ts) - 1)])
    return float(0.5 * (lo + hi))


@dataclass(frozen=True)
class BetaConstancy:
    """beta over a batch of random horizontal directions, with a flatness verdict."""

    results: tuple
    max_pairwise_dev: float
    tolerance: float  # 3x the worst joint stderr over pairs
    constant_within_tolerance: bool
    seed: int

    def as_dict(self):
        return {
            "results": [r.as_dict() for r in self.results],
            "max_pairwise_dev": self.max_pairwise_dev,
            "tolerance": self.tolerance,
            "constant_within_tolerance": self.constant_within_tolerance,
            "seed": self.seed,
        }


def beta_constancy(
    gauge: Gauge,
    n_directions: int = 8,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 7,
) -> BetaConstancy:
    """beta for uniformly random unit directions in V1; reports whether all
    pairwise deviations sit within 3 joint standard errors."""
    n_directions = int(n_directions)
    if n_directions < 2:
        raise ValueError("need at least two directions")
    model = gauge.model
    rng = substream(seed, 55)
    dirs = rng.standard_normal(size=(n_directions, model.m1))
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0):
        raise GaugeDefinitionError("degenerate direction draw")
    dirs /= norms[:, None]
    results = [beta(gauge, u, n_samples=n_samples, seed=seed, key=(d,)) for d, u in enumerate(dirs)]
    max_dev = tol = 0.0
    ok = True  # flat iff every pair individually passes its own joint allowance
    for i, a in enumerate(results):
        for b in results[i + 1 :]:
            dev = abs(a.value.value - b.value.value)
            jt = 3.0 * joint_stderr(a.value, b.value)
            max_dev = max(max_dev, dev)
            tol = max(tol, jt)
            ok = ok and dev <= jt
    return BetaConstancy(tuple(results), max_dev, tol, ok, seed)
