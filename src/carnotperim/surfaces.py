"""Level-set hypersurfaces with horizontal gradients and their perimeter.

A surface is the zero set of a scalar field f whose horizontal derivatives
(derivatives along group lines of first-layer directions) exist and do not
vanish.  Near a base point x the surface is a graph over the hyperplane
N = (kernel of the horizontal differential at x) + V2:

    Phi(eta) = x * eta * (phi(eta) * e1),   eta in N,

where e1 is the unit horizontal direction aligned with the horizontal
gradient at x and phi is the graph height solving f(Phi(eta)) = 0.  The
perimeter of a gauge ball B(y, t) carried by the surface is the integral
over the parameter region of the density

    alpha = |grad_H f| / (e1-component of grad_H f)

which equals 1 at the base point by the frame alignment.  Balls are measured
by Monte-Carlo over an adaptive parameter box; the box expands until the set
of samples that could contribute stops touching its shell.  A cloud is drawn
block by block and keeps only the samples that a ball within its reach can
hit, sorted along one horizontal axis, so each ball is scored on a window of
them.
"""

from __future__ import annotations

import ast
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .exceptions import BracketError, ConformanceError, RegionError, RegularityError
from .gauges import Gauge, _bisect, _certified_roots, _sum_sq
from .groups import GroupModel, embed_v1, plane_blocks, plane_points, vertical_complement
from .mc import Estimate, Record, box_blocks, substream

FD_STEP = 1e-5
GRAD_MIN = 1e-6
# The first box is BOX_SLACK times the provable reach bounds.  A sample
# within reach grows the box when it passes BOX_SHELL of a halfwidth, so
# any slack with BOX_SLACK * BOX_SHELL > 1 (here 1.004) keeps a correct
# bound from ever growing it; a larger slack only wastes samples.
BOX_SLACK = 1.08
BOX_GROWTH = 1.4
BOX_SHELL = 0.93
MAX_BOX_ATTEMPTS = 4
BRACKET_FACTOR = 6.0
BRACKET_DOUBLINGS = 5
BISECT_ITERS = 62
CERT_ITERS = 10
CERT_WIDTH = 2.0**-40  # certificate half-width, relative to the bracket's
HEIGHT_BLOCK = 1 << 13  # rows per cloud block: its arrays stay in cache and off the peak
FAIL_FRACTION = 1e-3
WORKING_PROBES = 64  # samples of _check_working_box
SCORE_SLACK = 1e-9
SCORE_BLOCK = 1 << 15  # window rows translated and tested at a time


@dataclass(frozen=True, eq=False)
class SurfaceSpec:
    """A level-set surface anchored at a base point with an aligned frame.

    f          : vectorized scalar field, (k, n) -> (k,)
    grad_h     : vectorized horizontal gradient, (k, n) -> (k, m1); finite
                 differences along group lines when no analytic form is given
    x          : base point on the surface
    nu0        : unit horizontal normal at x
    frame_perp : orthonormal basis of the kernel directions (rows), so the
                 parameter plane is span(frame_perp) + V2
    """

    model: GroupModel
    f: object
    grad_h: object
    x: np.ndarray
    nu0: np.ndarray
    frame_perp: np.ndarray
    name: str
    working_radius: float

    def f_many(self, pts):
        return np.asarray(self.f(self.model.conform(pts)), dtype=float)

    def grad_many(self, pts):
        return np.asarray(self.grad_h(self.model.conform(pts)), dtype=float)


def grad_h_fd(model: GroupModel, f, pts, step: float = FD_STEP):
    """Central differences of f along group lines of the first-layer axes."""
    pts = model.conform(pts)
    out = np.empty(pts.shape[:-1] + (model.m1,))
    for j in range(model.m1):
        e = np.zeros(model.m1)
        e[j] = 1.0
        ej = embed_v1(model, e)
        fp = f(model.multiply(pts, step * ej))
        fm = f(model.multiply(pts, -step * ej))
        out[..., j] = (np.asarray(fp) - np.asarray(fm)) / (2.0 * step)
    return out


def make_surface(
    model: GroupModel,
    f,
    x,
    grad_h=None,
    name: str = "surface",
    working_radius: float = 0.5,
) -> SurfaceSpec:
    """Validate and package a level-set surface.

    Checks at construction: x lies on the surface, the horizontal gradient
    at x is nonvanishing, finite-difference gradients are Richardson-stable
    when used, and the gradient keeps a positive e1-component on a sampled
    working box (sign normalized by aligning the frame with the gradient).
    """
    x = model.conform(np.asarray(x, dtype=float))
    fx = float(np.asarray(f(x[None]))[0])
    if abs(fx) > 1e-10:
        raise RegularityError("base point is not on the surface: |f(x)| = %.3g" % abs(fx))

    if grad_h is None:
        grad_fn = lambda pts: grad_h_fd(model, f, pts)
        _richardson_check(model, f, x)
    else:
        grad_fn = grad_h

    g = np.asarray(grad_fn(x[None]))[0]
    gn = float(np.linalg.norm(g))
    if gn < GRAD_MIN:
        raise RegularityError("horizontal gradient vanishes at the base point")
    nu0 = g / gn
    perp = vertical_complement(model, nu0) if model.m1 > 1 else np.zeros((0, model.m1))

    spec = SurfaceSpec(model, f, grad_fn, x, nu0, perp, name, float(working_radius))
    _check_working_box(spec)
    return spec


def _richardson_check(model, f, x, step: float = FD_STEP):
    d1 = grad_h_fd(model, f, x[None], step)[0]
    d2 = grad_h_fd(model, f, x[None], step / 2.0)[0]
    if np.max(np.abs(d1 - d2)) > 1e-5 * max(1.0, float(np.max(np.abs(d2)))):
        raise RegularityError(
            "finite-difference horizontal gradient is not Richardson-stable at the base point"
        )


def _check_working_box(spec: SurfaceSpec):
    """Sampled regularity on the working box: |grad| bounded below and the
    e1-component positive, so graph heights are unique there."""
    model = spec.model
    rng = substream(20620, 0)
    wr = spec.working_radius
    coords = rng.uniform(-1.0, 1.0, size=(WORKING_PROBES, model.n - 1))
    coords *= plane_blocks(model, wr, wr * wr)
    eta = plane_points(model, spec.frame_perp, coords, np.zeros(model.m1))
    s = rng.uniform(-wr, wr, size=WORKING_PROBES)
    e1 = embed_v1(model, spec.nu0)
    pts = model.multiply(model.multiply(spec.x, eta), s[:, None] * e1)
    grads = spec.grad_many(pts)
    gn = np.linalg.norm(grads, axis=-1)
    if gn.min() < GRAD_MIN:
        raise RegularityError("horizontal gradient degenerates on the working box")
    if (grads @ spec.nu0).min() <= 0.0:
        raise RegularityError(
            "the aligned derivative changes sign on the working box of radius %g around "
            "the base point; choose another base point (--point) or surface (--surface)" % wr
        )


# --- pointwise operations -----------------------------------------------------


def horizontal_normal(spec: SurfaceSpec, p) -> np.ndarray:
    """Unit horizontal normal grad_H f / |grad_H f| at p (sign not asserted)."""
    g = spec.grad_many(np.asarray(p, dtype=float)[None])[0]
    gn = float(np.linalg.norm(g))
    if gn < GRAD_MIN:
        raise RegularityError("horizontal gradient vanishes at the requested point")
    return g / gn


def graph_height(spec: SurfaceSpec, n_point, bracket: float) -> float:
    """Height phi with f(x * n * (phi * e1)) = 0 on the bracket [-b, b].

    The map s -> f(x * n * (s e1)) is strictly monotone wherever the aligned
    derivative is positive, so the root is unique; a missing sign change on
    the bracket raises BracketError.  The root is found by the certified
    regula falsi of _graph_heights, which puts it within 2^-40 b of phi
    (the bisection is only its fallback), and a residual |f| above 1e-10 at
    phi raises BracketError.
    """
    model = spec.model
    n_point = model.conform(np.asarray(n_point, dtype=float))
    base = model.multiply(spec.x, n_point)[None]
    phi, bracketed = _graph_heights(spec, base, float(bracket), doublings=0)
    if not bracketed[0]:
        raise BracketError("no sign change on [-%g, %g]: point outside the graph patch" % (bracket, bracket))
    root = model.multiply(base, phi[:, None] * embed_v1(model, spec.nu0))
    residual = abs(float(spec.f_many(root)[0]))
    if residual > 1e-10:
        raise BracketError("graph-height solve stalled: residual %.3g" % residual)
    return float(phi[0])


# --- patch sampling ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PatchCloud:
    """A reusable Monte-Carlo cloud over the graph patch at scale t.

    The cloud draws n_samples parameters eta uniformly in a box of the given
    halfwidths and volume, and maps each to the graph point Phi(eta).  A
    sample is ok where its height bracket shows a sign change of f and its
    aligned derivative does not degenerate (heights are certified roots, or
    bisected where the certificate failed; see _graph_heights); every other
    sample has density 0.

    Only the ok samples that a ball inside the cloud's reach can hit are
    kept: those within reach * (1 + SCORE_SLACK) of the base point, or all
    of them for a gauge that is no distance (see sample_patch).
    sorted_points holds their points column-major, sorted by the coordinate
    on the horizontal axis sort_axis, along which they spread widest, so a
    ball can be scored on a window one coordinate at a time; alpha holds
    their perimeter densities in the same order.  Membership in any ball
    B(y, t) inside the reach can be tested against this one cloud (common
    random numbers).
    """

    t: float
    alpha: np.ndarray
    sorted_points: np.ndarray
    sort_axis: int
    n_samples: int
    volume: float
    halfwidths: np.ndarray
    failures: int
    expansions: int
    seed: int


def _reach_bounds(spec: SurfaceSpec, gauge: Gauge, reach: float):
    """Per-coordinate bounds on parameters of points within distance reach of
    the base point.

    Such points satisfy d(Phi(eta), x) <= reach, i.e. p = eta * (phi e1)
    lies in B(0, reach), so |p_1| <= h = reach r0 with r0 the gauge's
    horizontal block radius.  The first layer p_1 = eta_1 + phi e1 splits
    orthogonally, since eta_1 is perpendicular to e1, so |eta_1|^2 + phi^2 =
    |p_1|^2 <= h^2: each kernel coordinate is at most h, and |eta_1| |phi|
    <= |p_1|^2 / 2.  The second layer is p_2 = eta_2 + phi [eta_1, e1] / 2,
    and |[eta_1, e1]| <= ad_norm(e1) |eta_1|, so |eta_2| <= |p_2| + c |p_1|^2
    with c = ad_norm(e1) / 4.  The two layers are bounded jointly: the
    dilation by 1 / reach maps p into the unit ball and scales |p_2| +
    c |p_1|^2 by reach^-2, so each vertical coordinate is at most reach^2
    gauge.vertical_reach(c).
    """
    model = spec.model
    return plane_blocks(model, reach * gauge.block_radii()[0],
                        reach**2 * gauge.vertical_reach(0.25 * model.ad_norm(spec.nu0)))


def sample_patch(
    spec: SurfaceSpec,
    gauge: Gauge,
    t: float,
    n_samples: int,
    seed: int = 7,
    key: tuple = (),
    reach: float | None = None,
) -> PatchCloud:
    """Draw the parameter cloud for balls of radius t near the base point.

    The cloud covers every ball B(y, t) inside B(x, reach), x the base point,
    i.e. with y within reach - t of x; reach defaults to 2t, which covers
    every y within t.  The box starts from provable bounds on the parameters
    within reach (with slack) and expands per layer block while samples
    within reach touch that block's shell; failure to stabilize, or a
    bracket-failure fraction above 0.1% among samples inside the provable
    bounds, raises RegionError.

    The cloud keeps only the ok samples within reach' = reach (1 +
    SCORE_SLACK) of x.  By the triangle inequality a hit of B(y, t) lies
    within t + d(x, y) <= reach of x, so no hit is lost; the slack covers
    rounding and perimeter_ball's centres, which may lie t (1 + 1e-9) from
    x.  A gauge that is no distance (gauge.declared_distance false) gets no
    such bound, so its cloud keeps every ok sample.  Each draw is worked
    block by block (see _draw_cloud), so the checks above need no array of
    the whole cloud, and only the kept rows' points and densities are held.
    """
    model = spec.model
    if t <= 0:
        raise ValueError("radius must be positive")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    reach = 2.0 * t if reach is None else float(reach)
    if reach < t:
        raise ValueError("reach must be at least the radius")
    bounds = _reach_bounds(spec, gauge, reach)
    slack = np.full(model.n - 1, BOX_SLACK)
    expansions = 0
    for attempt in range(MAX_BOX_ATTEMPTS):
        hw = slack * bounds
        kept, alpha, shell, relevant, failures, degenerate = _draw_cloud(
            spec, gauge, t, n_samples, hw, bounds, reach * (1.0 + SCORE_SLACK), seed,
            key + (attempt,))
        touched = shell > BOX_SHELL * hw  # all False when no sample is within reach
        if not touched.any():
            break
        # grow only the touched blocks so benign directions stay tight
        slack *= plane_blocks(model, BOX_GROWTH if touched[: model.m1 - 1].any() else 1.0,
                              BOX_GROWTH if touched[model.m1 - 1 :].any() else 1.0)
        expansions += 1
    else:
        raise RegionError("parameter box did not stabilize after %d expansions" % MAX_BOX_ATTEMPTS)
    if failures > FAIL_FRACTION * max(relevant, 1):
        raise RegionError(
            "graph-height bracket failed on %d reachable samples of %d: "
            "surface leaves the patch" % (failures, relevant)
        )
    # bracketed surface points with a degenerate aligned derivative inside the
    # reach region would silently undercount the integral; refuse instead
    if degenerate:
        raise RegionError(
            "the aligned derivative degenerates on %d reachable surface samples; "
            "the radius exceeds the graph patch" % degenerate
        )
    axis = 0
    if len(kept):  # column by column: a row-major reduction along axis 0 loops per row
        axis = int(np.argmax([np.ptp(kept[:, j]) for j in range(model.m1)]))
    # a window holds every sample with its key, so ties may come in any order
    order = np.argsort(kept[:, axis])
    scratch = np.empty(len(order))
    for col in (*kept.T, alpha):  # sorted in place, one column of scratch at a time
        np.take(col, order, out=scratch, mode="clip")
        col[...] = scratch
    return PatchCloud(t=t, alpha=alpha, sorted_points=kept, sort_axis=axis,
                      n_samples=n_samples, volume=float(np.prod(2.0 * hw)), halfwidths=hw,
                      failures=failures, expansions=expansions, seed=seed)


def _draw_cloud(spec, gauge, t, n_samples, hw, bounds, reach, seed, key):
    """Draw n_samples parameters in the box hw and keep the ok samples
    within reach of the base point (every ok sample if the gauge is no
    distance).

    The draw comes from mc.box_blocks in blocks of at most HEIGHT_BLOCK
    rows (never one of a single row: BLAS rounds a one-row f apart).  A
    block's heights, points and densities are found, and its checks folded
    into the draw's, before the next block starts.  The kept rows are
    gathered into the head of one column-major buffer of n_samples rows
    (_mapped_columns) and their densities into another; pages past the head
    are never written.
    Returns

    - the points and the densities of the kept rows, in draw order, as
      views of those buffers;
    - shell: the column maxima of |eta| over the ok rows within reach;
    - relevant: the rows inside the provable bounds, over every block, and
      failures: those of them whose height bracket failed;
    - degenerate: the number of bracketed rows within reach that are not ok.

    The shell and degenerate checks share the reach test that keeps rows,
    whose radius is sample_patch's reach times 1 + SCORE_SLACK: a sample in
    that thin outer shell lies inside the bounds for the wider reach, which
    BOX_SLACK * BOX_SHELL (1.004) still clears, and a degenerate sample
    there could be hit, so it is refused like one within reach.

    A block keeps one column-major layout from the draw to the kept rows,
    and no reduction runs along a short row where a column-wise form has
    the same bits.  Elementwise numpy ops with operands of mixed layouts,
    fancy indexing on a C-ordered array and np.linalg.norm along rows of 2
    to 4 entries each cost several times their column-wise forms: on an
    8192-row H^1 block the height step went 165 -> 60 us, the reach test
    160 -> 97 us, |grad_H f| 145 -> 23 us and the kept-row gather 36 -> 17
    us.  |grad_H f| adds the squares in index order (_sum_sq), which is
    np.linalg.norm's order for rows of fewer than 8 entries; from 8 on
    numpy adds a C-ordered row in another order, so on H^4 and up alpha's
    last bits follow the index order in every layout.
    """
    model = spec.model
    e1 = embed_v1(model, spec.nu0)
    origin = np.zeros(model.m1)
    shell = np.zeros(model.n - 1)
    points = _mapped_columns(n_samples, model.n)
    alpha = np.empty(n_samples)
    kept = relevant = failures = degenerate = 0
    for eta in box_blocks(hw, n_samples, seed, key, HEIGHT_BLOCK):
        base = model.multiply(spec.x, plane_points(model, spec.frame_perp, eta, origin))
        phi, found = _graph_heights(spec, base, BRACKET_FACTOR * t)
        step = np.empty(base.shape, order="F")
        np.multiply.outer(phi, e1, out=step)
        pts = model.multiply(base, step)
        grads = spec.grad_many(pts)
        gn = np.sqrt(_sum_sq(grads))
        x1f = grads @ spec.nu0
        good = found & (x1f > 1e-9 * np.maximum(gn, 1.0))
        near = gauge.in_ball(pts, radius=reach, center=spec.x)
        size = np.abs(eta)
        inside = np.all(size <= bounds, axis=-1)
        relevant += int(np.count_nonzero(inside))
        failures += int(np.count_nonzero(inside & ~found))
        degenerate += int(np.count_nonzero(near & found & ~good))
        within = near & good
        # |eta| >= 0, so zeroing the other rows leaves the maxima over these
        np.maximum(shell, (size * within[:, None]).max(axis=0), out=shell)
        keep = np.flatnonzero(within if gauge.declared_distance else good)
        rows = slice(kept, kept + len(keep))
        _take_rows(pts, keep, points[rows])
        np.divide(gn[keep], x1f[keep], out=alpha[rows])
        kept = rows.stop
    return points[:kept], alpha[:kept], shell, relevant, failures, degenerate


def _mapped_columns(rows, cols):
    """An uninitialised column-major (rows, cols) array in an anonymous
    private mapping of its own: only the pages it writes become resident,
    and all of them go back to the system when it is freed.  An np.empty
    buffer this large lands on malloc's heap once one as large has been
    freed, and the pages it wrote stay resident there; on the blowup
    command that raised the peak RSS by about 1 MB (Linux, glibc)."""
    buf = mmap.mmap(-1, rows * cols * np.dtype(float).itemsize, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=float).reshape(cols, rows).T


def _take_rows(pts, rows, out=None):
    """pts[rows] of a column-major pts as a column-major array, gathered one
    column at a time into out (a new array by default); take's default
    mode would buffer each column."""
    if out is None:
        out = np.empty((len(rows), pts.shape[1]), order="F")
    for j in range(pts.shape[1]):
        np.take(pts[:, j], rows, out=out[:, j], mode="clip")
    return out


def _graph_heights(spec, base, half_width, doublings=BRACKET_DOUBLINGS):
    """Vectorized graph heights over an array of N-points.

    Starts from the bracket [-S, S], S = half_width, and doubles S up to
    `doublings` times where f shows no sign change; returns the heights and
    the mask of samples that were bracketed (the others get height 0).  On
    its bracket each height is found by a certified Illinois regula falsi
    (gauges._certified_roots): the height s it returns has f changing sign
    on [s - d, s + d], d = CERT_WIDTH * S, so the root lies within d of s.
    Rows still uncertified after CERT_ITERS rounds fall back to
    BISECT_ITERS bisection steps on their bracket.

    The group line s -> base * (s e1) is affine in exponential coordinates,
    base + s (e1 + [base_1, e1] / 2), so one line per sample serves every
    evaluation of f.  All rows are solved as one block; _draw_cloud passes
    blocks of at most HEIGHT_BLOCK rows, so the solver's arrays stay small.
    """
    model = spec.model
    cols = base.T
    slope2 = 0.5 * model.bracket_v1(model.v1(base), spec.nu0).T  # the first layer's is nu0
    g = _line(spec, cols, slope2)
    S = np.full(cols.shape[1], half_width)
    # copies: f may return a view into g's buffer, which the next g overwrites
    glo = np.array(g(-S))
    ghi = np.array(g(S))
    no_flip = glo * ghi > 0.0
    for _ in range(doublings):
        if not no_flip.any():
            break
        S[no_flip] *= 2.0
        glo = np.where(no_flip, g(-S), glo)  # f's output may be read-only
        ghi = np.where(no_flip, g(S), ghi)
        no_flip = glo * ghi > 0.0
    pos_hi = (ghi > 0.0) | (glo < 0.0)  # g rises across the bracket, also when an end is a root
    sign = np.where(pos_hi, 1.0, -1.0)

    def rising(s, out):
        np.multiply(g(s), sign, out=out)

    # oriented end values; an unbracketed row's -1 and 1 keep it at height 0
    glo = np.where(no_flip, -1.0, glo * sign)
    ghi = np.where(no_flip, 1.0, ghi * sign)
    pending = ~no_flip
    phi = _certified_roots(rising, -S, S.copy(), glo, ghi, CERT_WIDTH * S, CERT_ITERS, pending)
    rows = np.flatnonzero(pending)
    if len(rows):  # gathered: the fallback costs only the rows that need it
        g, up = _line(spec, cols[:, rows], slope2[:, rows]), pos_hi[rows]
        phi[rows] = _bisect(lambda mid: (g(mid) > 0.0) == up, -S[rows], S[rows], BISECT_ITERS)
    return phi, ~no_flip


def _line(spec, cols, slope2):
    """g(s) = f(base * (s e1)) for the bases whose coordinates are the columns
    of cols.  The line is kept as (n, k) columns, and f sees a column-major
    (k, n) view of one reused buffer."""
    m1 = spec.model.m1
    pts = np.empty(cols.shape)

    def g(s):
        np.multiply.outer(spec.nu0, s, out=pts[:m1])
        np.multiply(slope2, s, out=pts[m1:])
        np.add(pts, cols, out=pts)
        return spec.f_many(pts.T)

    return g


# --- perimeter of balls ----------------------------------------------------------


@dataclass(frozen=True)
class PerimeterEstimate(Record):
    center: np.ndarray
    radius: float
    value: Estimate
    failures: int = 0
    expansions: int = 0


def ratio_on_cloud(cloud: PatchCloud, gauge: Gauge, y, spec: SurfaceSpec):
    """Perimeter of B(y, t) over t^(Q-1) evaluated on a frozen cloud.

    Returns (ratio, stderr); B(y, t) must lie within the cloud's reach, i.e.
    y within reach - t of the surface base point (t for the default reach).

    The cloud holds every sample that B(y, t) can hit (see sample_patch).
    B(y, t) lies in the translate by y of the box whose layer blocks are
    bounded by the gauge's block radii at scale t, so only the kept samples
    in that box's window along the cloud's sort axis are translated, only
    those inside the box are tested by the gauge, and the hits are exactly
    those of a scan of the whole cloud.  The estimate is the mean and
    variance over all n_samples draws of the density at a hit and 0
    elsewhere: the hits' densities are gathered block by block in the
    cloud's sorted order and summed once.
    """
    model = spec.model
    t = cloud.t
    y = np.asarray(y, dtype=float)
    radii = gauge.block_radii() * (1.0 + SCORE_SLACK)
    h = t * radii[0]
    key = cloud.sorted_points[:, cloud.sort_axis]
    lo = np.searchsorted(key, y[cloud.sort_axis] - h, side="left")
    hi = np.searchsorted(key, y[cloud.sort_axis] + h, side="right")
    parts = [np.zeros(0)]  # an empty window has no hits
    for start in range(lo, hi, SCORE_BLOCK):  # blocks bound the working set
        block = cloud.sorted_points[start : min(start + SCORE_BLOCK, hi)]
        rel = model.multiply(model.inverse(y), block)
        in_box = _sum_sq(model.v1(rel)) <= h * h
        if model.m2:
            v = t * t * radii[1]
            in_box &= _sum_sq(model.v2(rel)) <= v * v
        rows = np.flatnonzero(in_box)
        hits = start + rows[gauge.in_ball(_take_rows(rel, rows), radius=t)]
        parts.append(cloud.alpha[hits])
    w = np.concatenate(parts)
    n = cloud.n_samples
    mean = w.sum() / n
    w *= w
    var = max(float(w.sum()) - n * mean * mean, 0.0) / max(n - 1, 1)
    scale = cloud.volume / t ** (model.Q - 1)
    return float(mean * scale), float(math.sqrt(var / n) * scale)


def perimeter_ball(
    spec: SurfaceSpec,
    gauge: Gauge,
    y,
    t: float,
    n_samples: int = 100_000,
    seed: int = 7,
    key: tuple = (),
) -> PerimeterEstimate:
    """Monte-Carlo perimeter of the gauge ball B(y, t) carried by the surface.

    y must lie within distance t of the surface base point so the graph
    patch covers the ball.
    """
    model = spec.model
    y = model.conform(np.asarray(y, dtype=float))
    dxy = gauge.distance(spec.x, y)
    if dxy > t * (1.0 + 1e-9):
        raise ValueError("ball center is %.3g away from the base point; needs <= t" % dxy)
    cloud = sample_patch(spec, gauge, t, n_samples, seed=seed, key=key)
    ratio, se = ratio_on_cloud(cloud, gauge, y, spec)
    scale = t ** (model.Q - 1)
    est = Estimate(ratio * scale, se * scale, cloud.n_samples, seed)
    return PerimeterEstimate(y, t, est, cloud.failures, cloud.expansions)


# --- surface catalog and parsing ---------------------------------------------------


def vertical_plane(model: GroupModel, nu, x=None, name=None) -> SurfaceSpec:
    """The vertical hyperplane {<p1 - x1, nu> = 0} through x (default 0)."""
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    if x is None:
        x = model.identity()
    x = model.conform(np.asarray(x, dtype=float))
    off = float(model.v1(x) @ nu)

    def f(pts):  # BLAS rounds a column-major block differently, so read it row-major
        return np.ascontiguousarray(model.v1(pts)) @ nu - off

    def grad(pts):
        return np.broadcast_to(nu, pts.shape[:-1] + (model.m1,)).copy()

    return make_surface(
        model, f, x, grad_h=grad, name=name or "vplane", working_radius=4.0
    )


def coordinate_plane(model: GroupModel, x=None, name: str = "tplane") -> SurfaceSpec:
    """The plane {first vertical coordinate = 0}, anchored away from its
    degenerate point (the horizontal gradient vanishes where p1 = 0)."""
    if model.m2 < 1:
        raise ConformanceError("the coordinate plane needs a second layer")
    if x is None:
        x = model.identity()
        x[0] = 1.0
    x = model.conform(np.asarray(x, dtype=float))

    def f(pts):
        return pts[..., model.m1]

    table = model.bracket[:, :, 0]

    def grad(pts):
        return 0.5 * (model.v1(pts) @ table)

    return make_surface(model, f, x, grad_h=grad, name=name, working_radius=0.45)


def quadratic_graph(model: GroupModel, lin, quad=None, h0=None, name: str = "qgraph") -> SurfaceSpec:
    """Graph of a quadratic function of the horizontal layer over the first
    vertical coordinate: {p_vert = h' A h / 2 + b . h}, with analytic
    horizontal gradient.

    lin (b) must make the gradient nonvanishing at the base horizontal point
    h0 (default 0).  Completes the analytic surface catalog next to the
    vertical and coordinate planes.
    """
    if model.m2 < 1:
        raise ConformanceError("a quadratic graph needs a second layer")
    b = np.asarray(lin, dtype=float)
    if b.shape != (model.m1,):
        raise ConformanceError("lin must be a first-layer vector")
    A = np.zeros((model.m1, model.m1)) if quad is None else np.asarray(quad, dtype=float)
    A = 0.5 * (A + A.T)
    if h0 is None:
        h0 = np.zeros(model.m1)
    h0 = np.asarray(h0, dtype=float)

    def q(h):
        return 0.5 * np.einsum("...i,ij,...j->...", h, A, h) + h @ b

    x = np.zeros(model.n)
    x[: model.m1] = h0
    x[model.m1] = q(h0)
    table = model.bracket[:, :, 0]

    def f(pts):  # q's einsum and BLAS round by layout, so read the block row-major
        return pts[..., model.m1] - q(np.ascontiguousarray(pts[..., : model.m1]))

    def grad(pts):
        h = pts[..., : model.m1]
        return 0.5 * (h @ table) - (h @ A + b)

    return make_surface(model, f, x, grad_h=grad, name=name, working_radius=0.45)


_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Load,
)


def from_expression(model: GroupModel, expr: str, x, name=None) -> SurfaceSpec:
    """Surface from a coordinate expression in x1..xn (arithmetic and powers).

    The horizontal gradient falls back to finite differences along group
    lines, Richardson-checked at construction.
    """
    source = expr.replace("^", "**")
    tree = ast.parse(source, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConformanceError("disallowed token in surface expression: %r" % node)
        if isinstance(node, ast.Name) and not (
            node.id.startswith("x") and node.id[1:].isdigit()
        ):
            raise ConformanceError("unknown variable %r in surface expression" % node.id)
    code = compile(tree, "<surface>", "eval")

    def f(pts):
        env = {"x%d" % (j + 1): pts[..., j] for j in range(model.n)}
        out = eval(code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(out, dtype=float), pts.shape[:-1])

    return make_surface(model, f, x, grad_h=None, name=name or "expr:%s" % expr)


def parse_surface(model: GroupModel, spec: str, x=None) -> SurfaceSpec:
    """Parse 'vplane:nu=...', 'tplane' or 'expr:<formula>' (with base point)."""
    spec = spec.strip()
    if spec.startswith("vplane"):
        _, _, rest = spec.partition(":")
        if not rest.startswith("nu="):
            raise ConformanceError("vplane needs nu=...: %r" % spec)
        nu = np.array([float(v) for v in rest[3:].split(",")])
        return vertical_plane(model, nu, x=x)
    if spec == "tplane":
        return coordinate_plane(model, x=x)
    if spec.startswith("expr:"):
        if x is None:
            raise ConformanceError("expression surfaces need an explicit base point")
        return from_expression(model, spec[5:], x)
    raise ConformanceError("unknown surface spec %r" % spec)
