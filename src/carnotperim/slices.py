"""Vertical slice areas of the unit ball.

For a horizontal unit direction nu, the vertical subgroup N(nu) is the
hyperplane (nu-perp in V1) + V2, and

    psi(t) = (n-1)-dimensional Lebesgue area of  B(0,1) ∩ (t*nu + N(nu)).

Areas are estimated by hit-or-miss sampling inside an axis box of the slice;
boxes come from the gauge block radii, so over-coverage only costs samples,
never correctness.  Estimation is deterministic given (inputs, seed) and is
embarrassingly parallel across grid points and batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauges import Gauge
from .groups import direction, frame_points, vertical_complement
from .mc import Estimate, hit_or_miss, ordered_map, substream

DEFAULT_GRID = 41
DEFAULT_SAMPLES = 100_000
OFF_AXIS_PROBES = 1024


@dataclass(frozen=True)
class SliceProfile:
    """Sampled curve t -> psi(t) on a symmetric grid, with support bound."""

    nu: np.ndarray
    grid: np.ndarray
    areas: tuple
    support: float
    seed: int
    ambient_dim: int

    def values(self) -> np.ndarray:
        return np.array([a.value for a in self.areas])

    def stderrs(self) -> np.ndarray:
        return np.array([a.stderr for a in self.areas])


def _slice_box(gauge: Gauge, t: float):
    """Halfwidths of the sampling box for the slice at offset t.

    Coordinates on the hyperplane are (m1-1) first-layer components in the
    nu-perp frame followed by the m2 vertical components.  Returns None for
    an empty box (slice beyond the horizontal projection radius).
    """
    radii = gauge.block_radii()
    s2 = radii[0] ** 2 - t * t
    if s2 <= 0.0:
        return None
    model = gauge.model
    hw = np.empty(model.n - 1)
    hw[: model.m1 - 1] = np.sqrt(s2)
    if model.m2:
        hw[model.m1 - 1 :] = radii[1]
    return hw


def _slice_points(gauge, nu, perp, t, coords):
    """Embed hyperplane coordinates as ambient points t*nu + s + u.

    The points come back column-major, as the .T view of an (n, k) array,
    so every coordinate is one contiguous run for the gauge.  The first
    layer is groups.frame_points of perp, added in index order.
    """
    model = gauge.model
    cols = coords.T
    pts = np.empty((model.n, coords.shape[0]))
    frame_points(perp, cols, t * nu, pts[: model.m1])
    if model.m2:
        pts[model.m1 :] = cols[model.m1 - 1 :]
    return pts.T


def slice_area(
    gauge: Gauge,
    nu,
    t: float,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 7,
    key: tuple = (),
    workers: int = 1,
) -> Estimate:
    """Hit-or-miss estimate of psi(t) for the given direction.

    Batches are keyed by (seed, *key, batch index), so the result does not
    depend on worker scheduling.  An empty bounding box yields Estimate(0, 0).
    """
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    model = gauge.model
    nu = direction(model, nu)
    hw = _slice_box(gauge, t)
    if hw is None:
        return Estimate(0.0, 0.0, n_samples, seed)
    perp = vertical_complement(model, nu)

    def inside(coords):
        return gauge.in_ball(_slice_points(gauge, nu, perp, t, coords))

    return hit_or_miss(hw, inside, n_samples, seed, key, workers)


def slice_area_at_center(
    gauge: Gauge,
    nu,
    z,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 7,
    key: tuple = (),
) -> Estimate:
    """Area of B(z,1) ∩ N(nu), sampled directly on the plane through 0.

    Independent route for the translation-reduction identity: the value must
    match psi(-<z_1, nu>) since left translation along the plane has unit
    Jacobian.

    A point q of the plane lies in B(z, 1) when r = z^-1 q is in B(0, 1).
    Then q_1 = z_1 + r_1, and since [z_1, z_1] = 0 the vertical block is
    q_2 = z_2 + r_2 + [z_1, r_1] / 2, bounded by ad_norm(z_1) r0 / 2 on top
    of the ball's own block radii.
    """
    model = gauge.model
    nu = direction(model, nu)
    z = model.conform(z)
    perp = vertical_complement(model, nu)
    radii = gauge.block_radii()
    hw = np.empty(model.n - 1)
    hw[: model.m1 - 1] = radii[0] + np.linalg.norm(model.v1(z))
    if model.m2:
        z2 = np.linalg.norm(model.v2(z))
        hw[model.m1 - 1 :] = radii[1] + z2 + 0.5 * model.ad_norm(model.v1(z)) * radii[0]

    def inside(coords):
        return gauge.in_ball(_slice_points(gauge, nu, perp, 0.0, coords), radius=1.0, center=z)

    return hit_or_miss(hw, inside, n_samples, seed, key)


def support_radius(gauge: Gauge, nu, seed: int = 7, rel_tol: float = 1e-9) -> float:
    """Largest |t| with a nonempty slice, located by bisection on emptiness.

    Emptiness of the slice at t is probed on the slice center, a seeded
    vertical cloud and a seeded cloud over the whole slice box (half of it at
    vertical 0), which finds the widest slice also where it lies off the
    nu-axis; star-shapedness under dilations makes nonemptiness monotone in
    |t|, so bisection applies.  The best probe is then refined by compass
    search over all its coordinates, since a random cloud is thin once
    nu-perp has more than one dimension and misses narrow vertical optima
    (twoball's larger ball reaches farthest only at its centre height); the
    bound moves only when the refined probe, dilated to the slice one norm
    tolerance past the upper end of the first bisection, lies in the ball,
    and then bisection continues along the refined probe's dilation ray.
    """
    model = gauge.model
    nu = direction(model, nu)
    perp = vertical_complement(model, nu)
    radii = gauge.block_radii()
    top = float(radii[0]) * (1.0 + 1e-9)
    probes = [np.zeros((1, model.n - 1))]
    off_axis = substream(seed, 998).uniform(-1.0, 1.0, size=(OFF_AXIS_PROBES, model.n - 1))
    off_axis[:, : model.m1 - 1] *= radii[0]
    if model.m2:
        rng = substream(seed, 999)
        vertical = rng.uniform(-1.0, 1.0, size=(128, model.n - 1))
        vertical[:, : model.m1 - 1] = 0.0
        vertical[:, model.m1 - 1 :] *= radii[1]
        probes.append(vertical)
        off_axis[:, model.m1 - 1 :] *= radii[1]
        off_axis[: OFF_AXIS_PROBES // 2, model.m1 - 1 :] = 0.0
    cloud = np.vstack(probes + [off_axis])

    def nonempty(t):
        return bool(gauge.in_ball(_slice_points(gauge, nu, perp, t, cloud)).any())

    if not nonempty(0.0):
        return 0.0
    lo, hi = _bisect(nonempty, 0.0, top, rel_tol)
    if lo > 0.0:
        # slice coordinates scale like the dilation weights (1 horizontal, 2 vertical)
        weights = model.dilation_weights[1:]
        witnesses = cloud[gauge.in_ball(_slice_points(gauge, nu, perp, lo, cloud))]
        ray = _refined_probe(gauge, nu, perp, witnesses / lo**weights)

        def on_ray(t):
            return bool(gauge.in_ball(_slice_points(gauge, nu, perp, t, ray * t**weights))[0])

        beyond = hi + gauge.norm_tolerance(hi)
        if on_ray(beyond):
            lo, hi = _bisect(on_ray, beyond, top, rel_tol)
    return 0.5 * (lo + hi)


def _bisect(pred, lo, hi, rel_tol):
    """Shrink [lo, hi] around the point where pred turns false, pred(lo) true."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * max(1.0, hi):
            break
    return lo, hi


def _refined_probe(gauge, nu, perp, coords):
    """Slice coordinates at t = 1 of small gauge norm, as a (1, n-1) array.

    Starts from the row of coords with the smallest norm and runs a compass
    search over all n-1 coordinates, each layer's step halving from its block
    radius down to 1e-6 of it.  A smaller norm at t = 1 means a wider reach:
    the probe's dilation to t stays in the ball up to t = 1 / norm.
    """
    model = gauge.model

    def norms(c):
        return gauge.norm_many(_slice_points(gauge, nu, perp, 1.0, c))

    f = norms(coords)
    best = int(np.argmin(f))
    x, fx = coords[best], f[best]
    radii = gauge.block_radii()
    scale = np.full(model.n - 1, float(radii[0]))
    scale[model.m1 - 1 :] = radii[-1]
    moves = np.vstack([np.diag(scale), -np.diag(scale)])
    step = 1.0
    while step > 1e-6:
        trial = x + step * moves
        ft = norms(trial)
        j = int(np.argmin(ft))
        if ft[j] < fx:
            x, fx = trial[j], ft[j]
        else:
            step *= 0.5
    return x[None]


def slice_profile(
    gauge: Gauge,
    nu,
    grid_size: int = DEFAULT_GRID,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 7,
    workers: int = 1,
) -> SliceProfile:
    """psi sampled on a symmetric grid over [-T, T], T the support bound."""
    grid_size = int(grid_size)
    if grid_size < 5 or grid_size % 2 == 0:
        raise ValueError("grid_size must be odd and >= 5 so that t = 0 is a grid point")
    nu = direction(gauge.model, nu)
    T = support_radius(gauge, nu, seed=seed)
    grid = np.linspace(-T, T, grid_size)

    def one_point(i):
        return slice_area(gauge, nu, float(grid[i]), n_samples, seed=seed, key=(i,))

    areas = ordered_map(one_point, list(range(grid_size)), workers)
    return SliceProfile(nu, grid, tuple(areas), T, seed, gauge.model.n)


@dataclass(frozen=True)
class ConcavityReport:
    """Midpoint-concavity audit of a slice profile raised to an exponent."""

    exponent: float
    n_triples: int
    violations: tuple  # (t, margin) pairs beyond the noise allowance
    worst_margin: float  # max over triples of midpoint excess minus allowance

    @property
    def count(self) -> int:
        return len(self.violations)


def concavity_report(profile: SliceProfile, exponent: float | None = None) -> ConcavityReport:
    """Flag grid triples where the profile^exponent is midpoint-convex
    beyond three propagated standard errors.

    The default exponent is 1/(n-1) for the ambient dimension n, the power
    under which parallel sections of a convex body are concave on their
    support interval.  A triple (t-h, t, t+h) is a violation when

        psi(t)^e < 0.5 * (psi(t-h)^e + psi(t+h)^e) - 3 * sigma_prop

    with sigma_prop the delta-method error of the right-minus-left side.
    """
    if exponent is None:
        exponent = 1.0 / (profile.ambient_dim - 1)
    e = float(exponent)
    vals = profile.values()
    errs = profile.stderrs()
    pos = vals > 0.0
    safe = np.where(pos, vals, 1.0)
    powed = np.where(pos, safe**e, 0.0)
    # d(a^e)/da = e a^(e-1); entries with a = 0 have stderr 0 in this estimator
    dpow = np.where(pos, e * safe ** (e - 1.0) * errs, 0.0)
    violations = []
    worst = -np.inf
    for i in range(1, len(vals) - 1):
        mid_excess = 0.5 * (powed[i - 1] + powed[i + 1]) - powed[i]
        sigma = np.sqrt(dpow[i] ** 2 + 0.25 * dpow[i - 1] ** 2 + 0.25 * dpow[i + 1] ** 2)
        margin = mid_excess - 3.0 * sigma
        worst = max(worst, margin)
        if margin > 0.0:
            violations.append((float(profile.grid[i]), float(margin)))
    return ConcavityReport(e, len(vals) - 2, tuple(violations), float(worst))
