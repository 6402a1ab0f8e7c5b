"""Verification suites with quantitative margins.

Each suite produces a machine-readable report.  Suites distinguish between a
failed hypothesis (the statement under test does not apply; informational)
and a violated conclusion (a genuine failure): only the latter makes a
report's outcome "fail".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beta import beta
from .federer import DensitySchedule, default_schedule, federer_density
from .gauges import Gauge, convexity_sample, sample_in_ball
from .mc import joint_stderr, substream
from .slices import concavity_report, slice_profile
from .surfaces import horizontal_normal, vertical_plane

PASS, FAIL, SKIPPED = "pass", "fail", "hypothesis-unmet"


@dataclass(frozen=True)
class CheckResult:
    name: str
    target: float
    observed: float
    tolerance: float
    passed: bool
    note: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "target": self.target,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple
    seed: int
    outcome: str  # pass | fail | hypothesis-unmet
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.outcome != FAIL

    def as_dict(self):
        return {
            "suite": self.suite,
            "checks": [c.as_dict() for c in self.checks],
            "seed": self.seed,
            "outcome": self.outcome,
            "passed": self.passed,
            "info": self.info,
        }


def _finish(suite, checks, seed, info=None, hypothesis_met=True):
    if not hypothesis_met:
        outcome = SKIPPED
    else:
        outcome = PASS if all(c.passed for c in checks) else FAIL
    return VerificationReport(suite, tuple(checks), seed, outcome, info or {})


# --- unit-ball convexity ---------------------------------------------------------


def convexity_check(gauge: Gauge, samples: int = 20000, seed: int = 7) -> VerificationReport:
    """Midpoint sampler: linear midpoints of ball pairs stay in the ball."""
    nviol, worst, witness = convexity_sample(gauge, samples, seed)
    tol = max(1e-9, gauge.norm_tolerance(1.0))
    checks = [
        CheckResult("midpoint-violations", 0.0, float(nviol), 0.0, nviol == 0),
        CheckResult("worst-midpoint-excess", 0.0, worst, tol, worst <= tol),
    ]
    info = {"witness": witness, "declared_convex": gauge.declared_convex}
    return _finish("convexity", checks, seed, info)


# --- horizontal-rotation symmetry ------------------------------------------------


def _random_rotation(rng, m):
    a = rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def symmetry_check(
    gauge: Gauge,
    rotations=64,
    samples: int = 20000,
    seed: int = 7,
) -> VerificationReport:
    """Certify the two symmetry conditions of a horizontally symmetric ball.

    (1) the horizontal trace of the ball is a disc of some radius r0 and the
        horizontal projection of the ball does not exceed it (with the
        extremal radius realized by samples);
    (2) first-layer rotations extended by the identity on the vertical
        layers preserve the norm.

    ``rotations`` is either a count of sampled full rotations of the first
    layer (the default family, which acts transitively) or an explicit
    iterable of orthogonal matrices on the first layer.

    Rotation invariance reports the largest |norm(R p) - norm(p)|.  The
    rotated norms are evaluated near the known norm(p) (Gauge.norm_near), so
    for a star gauge a rotated row certified within the norm tolerance,
    4 tol max(1, norm(p)), counts as deviation 0; every other row, and every
    row of a closed-form gauge, counts its computed deviation.
    """
    model = gauge.model
    rng = substream(seed, 31)
    tol = max(1e-9, gauge.norm_tolerance(8.0) * 2.0)

    if isinstance(rotations, (int, np.integer)):
        family = [_random_rotation(rng, model.m1) for _ in range(int(rotations))]
    else:
        family = [np.asarray(R, dtype=float) for R in rotations]
        for R in family:
            if R.shape != (model.m1, model.m1) or np.max(np.abs(R.T @ R - np.eye(model.m1))) > 1e-9:
                raise ValueError("supplied rotation family must be orthogonal on the first layer")

    # condition (2): rotation invariance of the norm
    pts = sample_in_ball(gauge, samples, rng, radius=2.0)
    worst2 = -math.inf
    witness2 = None
    base = gauge.norm_many(pts)
    for R in family:
        rotated = pts.copy()
        rotated[:, : model.m1] = pts[:, : model.m1] @ R.T
        dev = np.abs(gauge.norm_near(rotated, base) - base)
        i = int(np.argmax(dev))
        if dev[i] > worst2:
            worst2 = float(dev[i])
            witness2 = {"point": pts[i].tolist(), "rotation": R.tolist()}
    cond2 = worst2 <= tol

    # condition (1): trace radii along sampled horizontal directions
    dirs = rng.standard_normal((64, model.m1))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    trace = gauge._trace_radius(dirs)
    r0 = float(np.median(trace))
    trace_spread = float(trace.max() - trace.min())
    disc_tol = max(tol, 1e-7 * max(1.0, r0))
    cond1a = trace_spread <= disc_tol

    ball_pts = sample_in_ball(gauge, samples, rng, radius=1.0)
    proj = np.linalg.norm(ball_pts[:, : model.m1], axis=1)
    overshoot = float(proj.max() - r0)
    cond1b = overshoot <= max(tol, 1e-7)
    realized = float(proj.max())
    cond1c = realized >= 0.93 * r0

    checks = [
        CheckResult("rotation-invariance", 0.0, worst2, tol, cond2),
        CheckResult("trace-is-a-disc", 0.0, trace_spread, disc_tol, cond1a),
        CheckResult("projection-within-trace", 0.0, overshoot, max(tol, 1e-7), cond1b),
        CheckResult("extremal-projection-realized", r0, realized, 0.07 * r0, cond1c),
    ]
    info = {
        "r0": r0,
        "witness": None if cond2 else witness2,
        "declared_v1_symmetric": gauge.declared_v1_symmetric,
    }
    return _finish("symmetry", checks, seed, info)


# --- section concavity and the central-slice identity ------------------------------


_PROFILE_GRID = 41
_BUSEMANN_CONVEXITY_SAMPLES = 20000  # cap on the busemann suite's convexity check


def busemann_suite(
    gauge: Gauge,
    nu,
    grid_size: int = _PROFILE_GRID,
    n_samples: int = 100_000,
    seed: int = 7,
) -> VerificationReport:
    """Concavity of the profile^(1/(n-1)) plus the central-slice maximum.

    Applies to convex unit balls; when the convexity sampler fails the suite
    reports hypothesis-unmet and its checks are informational only.
    """
    conv = convexity_check(gauge, min(n_samples, _BUSEMANN_CONVEXITY_SAMPLES), seed)
    return _busemann_report(conv, gauge, nu, grid_size, n_samples, seed)


def _busemann_report(conv, gauge, nu, grid_size, n_samples, seed):
    """busemann_suite given its convexity report, conv."""
    hypothesis_met = conv.outcome == PASS

    profile = slice_profile(gauge, nu, grid_size, n_samples, seed=seed)
    rep = concavity_report(profile)
    vals = profile.values()
    errs = profile.stderrs()
    mid = len(vals) // 2
    best = int(np.argmax(vals))
    argmax_gap = float(vals[best] - vals[mid])
    argmax_tol = 3.0 * float(math.hypot(errs[best], errs[mid]))

    b = beta(gauge, nu, n_samples=n_samples, seed=seed, key=(91,))
    center = profile.areas[mid]
    beta_gap = abs(b.value.value - center.value)
    beta_tol = 3.0 * joint_stderr(b.value, center)

    checks = [
        CheckResult("concavity-violations", 0.0, float(rep.count), 0.0, rep.count == 0),
        CheckResult("profile-max-at-center", 0.0, argmax_gap, argmax_tol, argmax_gap <= argmax_tol),
        CheckResult("beta-equals-central-slice", 0.0, beta_gap, beta_tol, beta_gap <= beta_tol),
    ]
    info = {
        "support": profile.support,
        "worst_concavity_margin": rep.worst_margin,
        "beta": b.value.as_dict(),
        "convexity_outcome": conv.outcome,
    }
    return _finish("busemann", checks, seed, info, hypothesis_met)


# --- blow-up density versus the slice constant --------------------------------------


def blowup_suite(
    surfaces,
    gauge: Gauge,
    sched: DensitySchedule | None = None,
    seed: int = 7,
    rel_tol: float = 0.05,
    beta_samples: int = 200_000,
) -> VerificationReport:
    """Blow-up density equals the slice constant at each surface point.

    surfaces: iterable of SurfaceSpec anchored at the points to test.  For
    horizontally symmetric gauges the implied ball constants (omega, c) are
    emitted alongside.
    """
    if sched is None:
        sched = default_schedule(seed=seed)
    checks = []
    info = {"points": []}
    for spec in surfaces:
        nu = horizontal_normal(spec, spec.x)
        rep = federer_density(spec, gauge, sched=sched)
        b = beta(gauge, nu, n_samples=beta_samples, seed=seed, key=(17,))
        gap = abs(rep.extrapolated_theta.value - b.value.value)
        tol = max(rel_tol * abs(b.value.value), 3.0 * joint_stderr(rep.extrapolated_theta, b.value))
        checks.append(
            CheckResult(
                "density-matches-beta[%s]" % spec.name, b.value.value,
                rep.extrapolated_theta.value, tol, gap <= tol,
            )
        )
        if gauge.declared_convex:
            cgap = abs(rep.extrapolated_theta.value - rep.centered_extrapolated.value)
            ctol = 3.0 * joint_stderr(rep.extrapolated_theta, rep.centered_extrapolated)
            checks.append(
                CheckResult(
                    "centered-coincides[%s]" % spec.name, rep.centered_extrapolated.value,
                    rep.extrapolated_theta.value, ctol, cgap <= ctol,
                )
            )
        entry = {
            "surface": spec.name,
            "point": spec.x.tolist(),
            "theta": rep.extrapolated_theta.as_dict(),
            "centered": rep.centered_extrapolated.as_dict(),
            "beta": b.value.as_dict(),
            "tail_converged": rep.tail_converged,
            "truncated": rep.truncated,
        }
        if gauge.declared_v1_symmetric:
            entry["ball_constants"] = {"omega": b.omega, "c_qm1": b.c_qm1}
        info["points"].append(entry)
    return _finish("blowup", checks, seed, info)


# --- orchestration --------------------------------------------------------------------


def run_all(
    model,
    gauge: Gauge,
    seed: int = 7,
    samples: int = 20000,
    profile_samples: int = 50000,
    blowup_sched: DensitySchedule | None = None,
):
    """Run every suite against one gauge; returns the list of reports."""
    nu = np.zeros(model.m1)
    nu[0] = 1.0
    conv = convexity_check(gauge, samples, seed)
    busemann_conv = conv  # the busemann suite's own check, unless its size differs
    if min(profile_samples, _BUSEMANN_CONVEXITY_SAMPLES) != samples:
        busemann_conv = convexity_check(
            gauge, min(profile_samples, _BUSEMANN_CONVEXITY_SAMPLES), seed)
    reports = [
        conv,
        symmetry_check(gauge, samples=samples, seed=seed),
        _busemann_report(busemann_conv, gauge, nu, _PROFILE_GRID, profile_samples, seed),
    ]
    if model.step == 2:
        if blowup_sched is None:
            blowup_sched = default_schedule(t0=0.4, halvings=3, samples_per_ball=40_000, seed=seed)
        plane = vertical_plane(model, nu)
        reports.append(
            blowup_suite([plane], gauge, sched=blowup_sched, seed=seed,
                         beta_samples=profile_samples)
        )
    return reports
