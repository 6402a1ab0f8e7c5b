"""Homogeneous norms and distances on stratified groups.

Three families are provided:

* closed-form gauges: the Cygan-Koranyi gauge ``(|x1|^4 + 16|x2|^2)^(1/4)``,
  the layer-wise maximum gauge ``max_j eps_j |x_j|^(1/j)``, and the Euclidean
  norm on abelian models (the layer-wise maximum of one layer);
* star-body gauges defined by a membership oracle for any compact body that
  is star-shaped under dilations (Euclidean balls, unions of vertical balls);
* an anisotropic Koranyi gauge used as a designed counterexample for the
  horizontal-rotation symmetry checks.

Declared flags (convexity, horizontal symmetry) are claims to be verified by
the validation and verification modules, never trusted silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CalibrationError, ConformanceError, GaugeDefinitionError
from .groups import GroupModel, Point, embed_v1
from .mc import Record, substream

_STAR_TOL = 1e-10


def _sum_sq(x):
    """Sum of squares over the last axis, added column by column in index order.

    einsum adds a contiguous row in SIMD lanes but a strided one in index
    order, so its bits depend on the memory layout once a row has three or
    more entries; this order is the same for every layout.
    """
    out = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        out += x[..., i] * x[..., i]
    return out


def _halve_bracket(lo, hi, mid, go_hi):
    """One bisection step in place: hi becomes mid where go_hi, lo elsewhere.

    A masked copy or np.where mispredicts a branch per row when the mask is
    random, as a bisection's is; selecting on the IEEE bit patterns with an
    all-ones or all-zeros mask is branch-free and picks the same bits.  mid
    is overwritten as scratch, so the mask is the one temporary array.
    """
    lo, hi, mid = lo.view(np.int64), hi.view(np.int64), mid.view(np.int64)
    m = go_hi.astype(np.int64)
    np.negative(m, out=m)  # all ones where go_hi
    lo ^= mid
    lo &= m
    lo ^= mid  # mid ^ ((mid ^ lo) & m)
    mid ^= hi
    mid &= m
    hi ^= mid  # hi ^ ((hi ^ mid) & m)


def _certified_roots(g, lo, hi, glo, ghi, d, rounds, pending):
    """Certified Illinois regula falsi, row by row; returns the root estimates s.

    Row i solves g_i = 0 for a function that rises across its bracket
    [lo_i, hi_i], where its values are glo_i <= 0 <= ghi_i; g(s, out)
    writes every g_i(s_i) into out.  A round takes the regula falsi point
    s = lo + (hi - lo) glo / (glo - ghi) of every row and probes g at
    s - d and s + d.  A pending row whose probes change sign (<= 0, then
    >= 0) is certified: its root lies within d of s, and it leaves pending.
    Otherwise the probe on the root's side becomes that end of the bracket,
    and an end kept twice in a row has its value halved, so that it cannot
    stall the iteration (Illinois; Dowell & Jarratt, BIT 1971).

    Rows that are not pending keep their bracket, so every round recomputes
    the same s for them, and no row is ever gathered.  After `rounds` rounds
    pending marks the rows left uncertified.  lo, hi, glo and ghi are
    overwritten.
    """
    k = len(lo)
    s, probe, gm, gp = (np.empty(k) for _ in range(4))
    last = np.zeros(k, dtype=np.int8)  # +1 where lo moved in the last round, -1 where hi did
    for _ in range(rounds):
        np.subtract(glo, ghi, out=s)
        with np.errstate(invalid="ignore"):  # both ends roots: NaN, never certified
            np.divide(glo, s, out=s)
        np.subtract(hi, lo, out=probe)
        s *= probe
        s += lo
        np.subtract(s, d, out=probe)
        g(probe, gm)
        np.add(s, d, out=probe)
        g(probe, gp)
        pending &= ~((gm <= 0.0) & (gp >= 0.0))
        if not pending.any():
            break
        down = pending & (gm > 0.0)  # the root lies below s - d
        up = pending & (gp < 0.0) & ~down  # above s + d
        np.copyto(lo, probe, where=up)
        np.copyto(glo, gp, where=up)
        np.subtract(s, d, out=probe)
        np.copyto(hi, probe, where=down)
        np.copyto(ghi, gm, where=down)
        np.multiply(ghi, 0.5, out=ghi, where=up & (last > 0))
        np.multiply(glo, 0.5, out=glo, where=down & (last < 0))
        last = up.view(np.int8) - down.view(np.int8)
    return s


class Gauge:
    """Base class; concrete gauges implement norm_many and block_radii."""

    kind = "abstract"

    def __init__(self, model: GroupModel, declared_convex: bool, declared_v1_symmetric: bool,
                 declared_distance: bool = True):
        self.model = model
        self.declared_convex = bool(declared_convex)
        self.declared_v1_symmetric = bool(declared_v1_symmetric)
        # d(x, y) = |x^-1 y| is declared to satisfy the triangle inequality
        # (validate samples it), so blow-up clouds may keep only their reach
        self.declared_distance = bool(declared_distance)

    # -- required interface --------------------------------------------------

    def norm_many(self, pts: Point) -> np.ndarray:
        raise NotImplementedError

    def norm_near(self, pts: Point, near) -> np.ndarray:
        """norm_many(pts), given an expected norm per row.

        A gauge whose norm is a root search may use near to certify rows
        within norm_tolerance of it; closed-form gauges ignore it.
        """
        return self.norm_many(pts)

    def block_radii(self) -> np.ndarray:
        """Per-layer Euclidean block radii of the unit ball.

        Entry i bounds |x_(i+1)-block| over the unit ball, hence also gives
        axis-aligned bounding boxes for balls of any radius via the dilation
        weights.  The first entry is the horizontal projection radius.
        """
        raise NotImplementedError

    def vertical_reach(self, c: float) -> float:
        """sup of |x_2| + c |x_1|^2 over the unit ball, for c >= 0.

        The block radii (r0, r1) bound it by r1 + c r0^2, which is exact for
        a product of layer balls (dinf); a gauge that knows its ball's shape
        returns the sup itself.  Only step-2 models have a second layer.
        """
        radii = self.block_radii()
        return float(radii[1] + c * radii[0] ** 2)

    def spec_string(self) -> str:
        raise NotImplementedError

    # -- derived interface ----------------------------------------------------

    def norm(self, p: Point) -> float:
        return float(self.norm_many(np.asarray(p, dtype=float)[None])[0])

    def distance(self, p: Point, q: Point) -> float:
        return self.norm(self.model.multiply(self.model.inverse(p), q))

    def in_ball(self, pts: Point, radius: float = 1.0, center: Point | None = None) -> np.ndarray:
        """Membership of pts in the closed ball of the given radius/center."""
        pts = self.model.conform(pts)
        if center is not None:
            pts = self.model.multiply(self.model.inverse(center), pts)
        return self.norm_many(pts) <= radius

    def _trace_radius(self, dirs) -> np.ndarray:
        """sup { s : (s*u, 0) in unit ball } for each horizontal unit vector u.

        Horizontal points dilate linearly, so by homogeneity the sup is
        1 / ||(u, 0)||.
        """
        return 1.0 / self.norm_many(embed_v1(self.model, dirs))

    def norm_tolerance(self, scale: float = 1.0) -> float:
        """Absolute evaluation tolerance of norm_many at the given scale."""
        return 1e-12 * max(1.0, scale)

    def ball_box_halfwidths(self, radius: float = 1.0) -> np.ndarray:
        """Per-coordinate halfwidths of an axis box containing the ball."""
        radii = self.block_radii()
        model = self.model
        out = np.empty(model.n)
        out[: model.m1] = radius * radii[0]
        if model.m2:
            out[model.m1 :] = radius**2 * radii[1]
        return out


def _unit_quartic_bound() -> float:
    """The largest double q with q ** 0.25 <= 1.0 under numpy's array pow.

    Within 2^-40 of 1 the pow may round either way, so every double of that
    band is tried with the same array ``** 0.25`` and the passing ones must
    form a prefix of it.  Outside the band q^(1/4) is more than 2^-43 away
    from 1, which a pow off by an ulp or two cannot cross.
    """
    lo, hi = np.array([1.0 - 2.0**-40, 1.0 + 2.0**-40]).view(np.int64)
    band = np.arange(lo, hi + 1, dtype=np.int64).view(np.float64)
    inside = band**0.25 <= 1.0
    n = int(np.count_nonzero(inside))
    if not (0 < n < band.size and inside[:n].all()):
        raise ArithmeticError("pow(q, 0.25) <= 1 is not a prefix of the doubles near 1")
    return float(band[n - 1])


_UNIT_QUARTIC = _unit_quartic_bound()


class KoranyiGauge(Gauge):
    """The Cygan-Koranyi gauge (|x1|^4 + 16 |x2|^2)^(1/4) on step-2 models."""

    kind = "koranyi"

    def __init__(self, model: GroupModel):
        if model.step != 2:
            raise ConformanceError("the %s gauge needs a step-2 model" % self.kind)
        super().__init__(model, declared_convex=True, declared_v1_symmetric=True)

    def _v1_sum_sq(self, pts):
        """|x1|^2 of conforming pts."""
        return _sum_sq(self.model.v1(pts))

    def _quartic(self, pts):
        """|x1|^4 + 16 |x2|^2 of conforming pts: the norm's fourth power."""
        a = self._v1_sum_sq(pts)
        a *= a  # in place on the fresh sums: the bits of a * a + 16.0 * b
        b = _sum_sq(self.model.v2(pts))
        b *= 16.0
        a += b
        return a

    def norm_many(self, pts):
        return self._quartic(self.model.conform(pts)) ** 0.25

    def in_ball(self, pts, radius=1.0, center=None):
        """Gauge.in_ball; the unit ball compares the quartic without a pow.

        q ** 0.25 <= 1.0 holds exactly when q <= _UNIT_QUARTIC, the bound
        found by running the same pow on every double it could round across,
        so the answers are bitwise those of norm_many(pts) <= 1.0.
        """
        pts = self.model.conform(pts)
        if center is not None:
            pts = self.model.multiply(self.model.inverse(center), pts)
        if radius == 1.0:
            return self._quartic(pts) <= _UNIT_QUARTIC
        return self.norm_many(pts) <= radius

    def block_radii(self):
        return np.array([1.0, 0.25])

    def vertical_reach(self, c):
        """hypot(1/4, c r0^2), with r0 the horizontal radius block_radii()[0].

        On the unit sphere |x_1|^2 = cos a and |x_2| = sin(a) / 4, and
        sin(a) / 4 + c cos(a) peaks at hypot(1/4, c) for an a in [0, pi/2]:
        that is r0 = 1.  A stretched first layer (AnisotropicGauge) has
        |x_1| <= r0 |W x_1|, with equality along the least weighted axis, so
        the same sup of |x_2| + c r0^2 |W x_1|^2 is its sup.
        """
        return math.hypot(0.25, c * self.block_radii()[0] ** 2)

    def spec_string(self):
        return "koranyi"


class DInfinityGauge(Gauge):
    """Layer-wise maximum gauge max_j eps_j |x_j|^(1/j) with eps_1 = 1.

    The second-layer constant must be small enough for the triangle
    inequality to hold; candidates are certified by sampling through
    ``calibrate_dinfty``.
    """

    kind = "dinf"

    def __init__(self, model: GroupModel, eps2: float = 1.0):
        super().__init__(model, declared_convex=True, declared_v1_symmetric=True)
        if model.step == 2 and eps2 <= 0:
            raise GaugeDefinitionError("eps2 must be positive")
        self.eps2 = float(eps2)

    def norm_many(self, pts):
        pts = self.model.conform(pts)
        out = np.sqrt(_sum_sq(self.model.v1(pts)))
        if self.model.m2:
            v2 = np.sqrt(_sum_sq(self.model.v2(pts)))
            out = np.maximum(out, self.eps2 * np.sqrt(v2))
        return out

    def block_radii(self):
        if self.model.m2:
            return np.array([1.0, self.eps2**-2])
        return np.array([1.0])

    def spec_string(self):
        return "dinf:eps2=%g" % self.eps2


class EuclideanGauge(DInfinityGauge):
    """Euclidean norm on an abelian model (dilations are scalar there): the
    dinf gauge of a model with one layer."""

    kind = "euclidean"

    def __init__(self, model: GroupModel):
        if model.step != 1:
            raise ConformanceError("the euclidean gauge is homogeneous on abelian models only")
        super().__init__(model)

    def spec_string(self):
        return "euclidean"


class AnisotropicGauge(KoranyiGauge):
    """Koranyi gauge of W x_1 with a stretched first layer: not V1-symmetric.

    W multiplies every odd-indexed first-layer axis by scale.  Designed
    counterexample for the horizontal-rotation checks; the unit ball is
    still convex and inversion-symmetric.
    """

    kind = "aniso"

    def __init__(self, model: GroupModel, scale: float = 2.0):
        if scale <= 0:
            raise GaugeDefinitionError("scale must be positive")
        super().__init__(model)
        self.declared_v1_symmetric = False
        self.scale = float(scale)
        w = np.ones(model.m1)
        w[1::2] = self.scale
        self._weights = w

    def _v1_sum_sq(self, pts):
        return _sum_sq(self.model.v1(pts) * self._weights)

    def block_radii(self):
        return np.array([1.0 / min(1.0, self._weights.min()), 0.25])

    def spec_string(self):
        return "aniso:scale=%g" % self.scale


# --- star-body gauges --------------------------------------------------------


def star_norm(model: GroupModel, oracle, p: Point, tol: float = _STAR_TOL, near=None):
    """Gauge of p for the body given by a membership oracle.

    The oracle must define a compact body containing a neighborhood of the
    identity and star-shaped under dilations, so membership of delta_{1/r} p
    flips exactly once along each dilation ray.  The unique boundary scale is
    located by bracket expansion plus bisection to relative tolerance tol.
    Vectorized: p may be an array of points.

    near, if given, is an expected norm per point.  A row is certified when
    it is inside at near + w and at 8 (near + w), and outside at near - w,
    with w = 4 tol max(1, near), the norm_tolerance of a star gauge: these
    are the spot checks below, moved to the ends of the band.  Membership
    flips once along the ray, so the norm of a certified row lies within w
    of near, and the row returns near.  Every other row, and every row with
    near <= w, takes the bracket, bisection and spot checks unchanged; rows
    do not depend on each other, so it gets the bits of a call without near.
    No guard is lost: a certified row has answered the spot checks' three
    questions (inside just above the norm and at eight times it, outside
    just below it) at near +- w instead of r (1 +- 1e-6), and a row that
    fails one goes on to the spot checks themselves.

    The identity has norm 0 and skips the search.  When no row is the
    identity, the rows go to the search as they are, without a gathered
    copy and a scatter back; rows do not depend on each other there, so the
    bits are the same either way.
    """
    pts = model.conform(np.atleast_2d(np.asarray(p, dtype=float)))
    scalar = np.asarray(p).ndim == 1
    if near is not None:
        near = np.broadcast_to(np.asarray(near, dtype=float), pts.shape[:1])
    active = pts[:, 0] != 0.0  # column by column: a reduction along a short row loops per row
    for j in range(1, pts.shape[1]):
        active |= pts[:, j] != 0.0
    if active.all():
        out = _star_norm_active(model, oracle, pts, tol, near)
    else:
        out = np.zeros(pts.shape[0])
        if active.any():
            out[active] = _star_norm_active(model, oracle, pts[active], tol,
                                            None if near is None else near[active])
    return float(out[0]) if scalar else out


def _star_norm_active(model, oracle, pts, tol, near=None):
    k = pts.shape[0]
    # per call, not per step: a dilated block with contiguous columns
    # (membership does not depend on layout)
    pts_t = pts.T
    dilated = np.empty(pts.shape[::-1]).T
    every_row = _dilation_operands(model, pts_t, dilated)

    def inside(r, rows=None):
        ops = every_row if rows is None else _dilation_operands(model, pts_t[:, rows], dilated)
        return np.asarray(oracle(_dilate_inv(r, *ops)), dtype=bool)

    if near is not None:
        w = 4.0 * tol * np.maximum(1.0, near)
        certified = near > w  # false for NaN and inf too
        above = np.where(certified, near + w, 1.0)  # rows near <= w probe at 1
        certified &= inside(above)
        certified &= inside(8.0 * above)
        certified &= ~inside(np.where(certified, near - w, 1.0))
        r = near.copy()
        rest = ~certified
        if rest.any():
            r[rest] = _star_norm_active(model, oracle, pts[rest], tol)
        return r

    lo = np.full(k, 0.5)
    hi = np.ones(k)
    inside_hi = inside(hi)
    for _ in range(90):
        if inside_hi.all():
            break
        grow = ~inside_hi
        hi[grow] *= 2.0
        inside_hi[grow] = inside(hi[grow], grow)
    else:
        raise GaugeDefinitionError("no boundary crossing found: body may be unbounded or empty")
    lo = np.minimum(lo, 0.5 * hi)
    inside_lo = inside(lo)
    for _ in range(90):
        if not inside_lo.any():
            break
        lo[inside_lo] *= 0.5
        inside_lo[inside_lo] = inside(lo[inside_lo], inside_lo)
        if lo.min() < 1e-300:
            raise GaugeDefinitionError("membership does not flip along a dilation ray")
    steps = int(math.ceil(math.log2(1.0 / tol))) + 2
    mid = np.empty(k)
    for _ in range(steps):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        _halve_bracket(lo, hi, mid, np.asarray(oracle(_dilate_inv(mid, *every_row)), dtype=bool))
    r = 0.5 * (lo + hi)
    # consistency spot checks: inside just above r and well above it,
    # outside just below; bodies whose membership flips more than once
    # along the ray trip one of these
    eps = 1e-6
    bad = ~inside(r * (1 + eps))
    bad |= ~inside(r * 8.0)
    bad |= inside(r * (1 - eps))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise GaugeDefinitionError(
            "membership is not monotone along the dilation ray of %r" % (pts[idx],)
        )
    return r


def _dilation_operands(model, pts_t, out):
    """The operands of _dilate_inv for the points whose coordinates are the
    rows of pts_t, dilated into the first rows of the block out."""
    (n, k), m1 = pts_t.shape, model.m1
    out = out[:k]
    second = [(pts_t[j], out[:, j]) for j in range(m1, n)]
    return out, pts_t[:m1], out.T[:m1], second


def _dilate_inv(r, out, p1, o1, second):
    """delta_{1/r} of the points, one layer at a time; returns out.

    The first layer is scaled by s = 1/r and the second by s * s, one
    correctly rounded multiply.  The first layer is one loop over the rows
    and each second-layer column another.
    """
    s = np.reciprocal(r)
    np.multiply(p1, s, out=o1)
    s *= s
    for p, o in second:
        np.multiply(p, s, out=o)
    return out


class StarBodyGauge(Gauge):
    """Gauge whose unit ball is a user-supplied dilation-star-shaped body."""

    kind = "star"

    def __init__(
        self,
        model: GroupModel,
        oracle,
        block_radii,
        name: str,
        declared_convex: bool,
        declared_v1_symmetric: bool,
        tol: float = _STAR_TOL,
        declared_distance: bool = True,
    ):
        super().__init__(model, declared_convex, declared_v1_symmetric, declared_distance)
        self.oracle = oracle
        self._block_radii = np.asarray(block_radii, dtype=float)
        self._name = name
        self.tol = float(tol)

    def norm_many(self, pts):
        return star_norm(self.model, self.oracle, np.atleast_2d(self.model.conform(pts)), self.tol)

    def norm_near(self, pts, near):
        pts = np.atleast_2d(self.model.conform(pts))
        return star_norm(self.model, self.oracle, pts, self.tol, near)

    def in_ball(self, pts, radius=1.0, center=None):
        pts = self.model.conform(pts)
        if center is not None:
            pts = self.model.multiply(self.model.inverse(center), pts)
        if radius != 1.0:  # the unit dilation only multiplies by 1.0
            pts = self.model.dilate(1.0 / radius, pts)
        return np.asarray(self.oracle(pts), dtype=bool)

    def block_radii(self):
        return self._block_radii

    def norm_tolerance(self, scale: float = 1.0) -> float:
        return 4.0 * self.tol * max(1.0, scale)

    def spec_string(self):
        return self._name


class _EuclideanBallGauge(StarBodyGauge):
    """A star gauge whose unit ball is the Euclidean ball of radius rho."""

    def __init__(self, model: GroupModel, rho: float, tol: float):
        def oracle(pts):
            return _sum_sq(pts) <= rho * rho

        super().__init__(model, oracle, [rho] * model.step, "starball:rho=%g" % rho,
                         declared_convex=True, declared_v1_symmetric=True, tol=tol)
        self.rho = rho

    def vertical_reach(self, c):
        """On the sphere |x_2| = u and |x_1|^2 = rho^2 - u^2 for a u in
        [0, rho], and u + c (rho^2 - u^2) peaks at u = min(rho, 1 / (2c))."""
        rho = self.rho
        if 2.0 * c * rho <= 1.0:
            return rho
        return c * rho * rho + 0.25 / c


def euclidean_ball_gauge(model: GroupModel, rho: float, tol: float = _STAR_TOL) -> StarBodyGauge:
    """Gauge whose unit ball is the Euclidean ball of radius rho.

    For small enough rho this is a genuine homogeneous distance; the radius
    is user input, certified by sampling via ``validate``.
    """
    if rho <= 0:
        raise GaugeDefinitionError("starball radius must be positive")
    return _EuclideanBallGauge(model, rho, tol)


def two_ball_gauge(
    model: GroupModel,
    r1: float = 1.0,
    z1: float = -0.55,
    r2: float = 0.5,
    z2: float = 0.45,
    tol: float = _STAR_TOL,
) -> StarBodyGauge:
    """Union of two vertically offset Euclidean balls: a non-convex star body.

    Each ball is centered on the vertical axis at height z_i with |z_i| < r_i,
    so each contains the identity and is star-shaped under dilations; hence so
    is the union.  Deliberately neither convex nor a distance; the default
    parameters produce a kink in the slice-area profile where the smaller
    ball's slices vanish while disjoint from the larger ball's slices.
    """
    if model.m2 != 1:
        raise ConformanceError("the two-ball body is defined for models with dim V2 = 1")
    for r, z in ((r1, z1), (r2, z2)):
        if not (abs(z) < r):
            raise GaugeDefinitionError("each ball must contain the identity: need |z| < r")

    def oracle(pts):
        h2 = _sum_sq(pts[..., :-1])
        u = pts[..., -1]
        in1 = h2 + (u - z1) ** 2 <= r1 * r1
        in2 = h2 + (u - z2) ** 2 <= r2 * r2
        return in1 | in2

    radii = [max(r1, r2), max(abs(z1) + r1, abs(z2) + r2)]
    return StarBodyGauge(
        model,
        oracle,
        radii,
        "twoball:r1=%g,z1=%g,r2=%g,z2=%g" % (r1, z1, r2, z2),
        declared_convex=False,
        declared_v1_symmetric=False,
        tol=tol,
        declared_distance=False,
    )


# --- validation ---------------------------------------------------------------


@dataclass
class ValidationReport(Record):
    """Sampled checks of the homogeneous-distance axioms for one gauge."""

    gauge: str
    n_samples: int
    seed: int
    checks: dict
    worst_violation: float
    witness: list | None
    passed: bool


def sample_in_ball(gauge: Gauge, n: int, rng, radius: float = 1.0, max_rounds: int = 200):
    """Rejection-sample n points uniformly from the closed gauge ball."""
    hw = gauge.ball_box_halfwidths(radius)
    chunks = []
    got = 0
    for _ in range(max_rounds):
        draw = rng.uniform(-1.0, 1.0, size=(max(2 * n, 1024), gauge.model.n)) * hw
        keep = draw[gauge.in_ball(draw, radius)]
        chunks.append(keep)
        got += len(keep)
        if got >= n:
            break
    pts = np.concatenate(chunks, axis=0)
    if len(pts) < n:
        raise GaugeDefinitionError("rejection sampling failed: ball occupies too little of its box")
    return pts[:n]


def validate(gauge: Gauge, samples: int = 10000, seed: int = 7) -> ValidationReport:
    """Sampled checks of homogeneity, inversion symmetry and the triangle
    inequality on pairs from the ball of radius 4.

    Violations are reported, not thrown; the report carries the worst
    violation and its witnessing pair.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = substream(seed, 0)
    pts = sample_in_ball(gauge, samples, rng, radius=4.0)
    q = pts[rng.permutation(samples)]
    model = gauge.model

    norm_p = gauge.norm_many(pts)
    norm_q = gauge.norm_many(q)
    scale = 8.0
    tol = gauge.norm_tolerance(scale)

    checks = {}

    r = rng.uniform(0.25, 4.0, size=samples)
    hom = np.abs(gauge.norm_many(model.dilate(r, pts)) - r * norm_p)
    checks["homogeneity"] = _check_entry(hom, tol, pts)

    inv = np.abs(gauge.norm_many(model.inverse(pts)) - norm_p)
    inv_tol = 1e-13 if not isinstance(gauge, StarBodyGauge) else gauge.norm_tolerance(scale)
    checks["inversion_symmetry"] = _check_entry(inv, inv_tol, pts)

    tri = gauge.norm_many(model.multiply(pts, q)) - (norm_p + norm_q)
    checks["triangle"] = _check_entry(tri, tol, np.stack([pts, q], axis=1))

    worst = max(c["worst"] for c in checks.values())
    witness = None
    for c in checks.values():
        if c["violations"] and c["witness"] is not None:
            witness = c["witness"]
            break
    passed = all(c["violations"] == 0 for c in checks.values())
    return ValidationReport(
        gauge.spec_string(), samples, seed, checks, worst, witness, passed
    )


def _check_entry(excess, tol, witnesses):
    excess = np.asarray(excess)
    bad = excess > tol
    idx = int(np.argmax(excess))
    entry = {
        "violations": int(bad.sum()),
        "worst": float(excess[idx]),
        "tolerance": float(tol),
        "witness": None,
    }
    if bad.any():
        entry["witness"] = np.asarray(witnesses[idx]).tolist()
    return entry


@dataclass
class DInfCalibration(Record):
    """Outcome of the eps2 grid search; certification is by sampling only."""

    eps2: float
    grid: list
    passed: list
    certified: str = "sample"
    seed: int = 0


def calibrate_dinfty(model: GroupModel, grid, samples: int = 20000, seed: int = 7) -> DInfCalibration:
    """Largest grid candidate for eps2 whose validation shows no triangle
    violation.  Sample-certified only; raises CalibrationError if no
    candidate passes."""
    grid = sorted(float(g) for g in grid)
    passed = []
    for eps2 in grid:
        rep = validate(DInfinityGauge(model, eps2), samples=samples, seed=seed)
        if rep.checks["triangle"]["violations"] == 0:
            passed.append(eps2)
    if not passed:
        raise CalibrationError("no eps2 candidate in %r passed the triangle check" % (grid,))
    return DInfCalibration(max(passed), grid, passed, seed=seed)


def convexity_sample(gauge: Gauge, samples: int = 20000, seed: int = 7):
    """Midpoint convexity sampler for the unit ball.

    Draws pairs from the ball and checks the linear midpoint stays inside.
    Returns (violation count, worst excess norm, witness pair or None).
    """
    rng = substream(seed, 1)
    pts = sample_in_ball(gauge, int(samples), rng)
    q = pts[rng.permutation(len(pts))]
    mid = 0.5 * (pts + q)
    excess = gauge.norm_many(mid) - 1.0
    tol = max(1e-9, gauge.norm_tolerance(1.0))
    bad = excess > tol
    idx = int(np.argmax(excess))
    witness = [pts[idx].tolist(), q[idx].tolist()] if bad.any() else None
    return int(bad.sum()), float(excess[idx]), witness


# --- parsing -------------------------------------------------------------------


# spec head: (constructor, its options with their defaults)
_SPECS = {
    "koranyi": (KoranyiGauge, {}),
    "dinf": (DInfinityGauge, {"eps2": 1.0}),
    "euclidean": (EuclideanGauge, {}),
    "starball": (euclidean_ball_gauge, {"rho": 0.5}),
    "twoball": (two_ball_gauge, {"r1": 1.0, "z1": -0.55, "r2": 0.5, "z2": 0.45}),
    "aniso": (AnisotropicGauge, {"scale": 2.0}),
}


def parse_gauge(model: GroupModel, spec: str) -> Gauge:
    """Parse a gauge spec string.

    Accepted: 'koranyi', 'dinf:eps2=E', 'euclidean', 'starball:rho=R',
    'twoball:r1=..,z1=..,r2=..,z2=..', 'aniso:scale=S'.  An option the gauge
    does not take, or one given twice, is refused.
    """
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    if head not in _SPECS:
        raise GaugeDefinitionError("unknown gauge spec %r" % spec)
    make, defaults = _SPECS[head]
    kv = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            k = k.strip()
            if not v:
                raise GaugeDefinitionError("malformed gauge option %r in %r" % (item, spec))
            if k not in defaults:
                raise GaugeDefinitionError(
                    "unknown option %r for the %s gauge in %r (it takes %s)"
                    % (k, head, spec, ", ".join(defaults) or "no options"))
            if k in kv:
                raise GaugeDefinitionError("gauge option %r given twice in %r" % (k, spec))
            kv[k] = float(v)
    return make(model, **{**defaults, **kv})
