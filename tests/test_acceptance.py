"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Budgets: criterion 1 within 2 minutes, criterion 4 within
10 minutes, everything reproducible from the fixed seeds.
"""

import time

import numpy as np
import pytest
from scipy import integrate

from carnotperim import (
    AnisotropicGauge,
    beta,
    beta_constancy,
    concavity_report,
    perimeter_ball,
    slice_area,
    slice_profile,
    symmetry_check,
    vertical_plane,
    coordinate_plane,
)
from carnotperim.cli import main as cli_main
from carnotperim.federer import default_schedule, federer_density
from carnotperim.groups import direction
from carnotperim.mc import joint_stderr
from carnotperim.verify import FAIL, PASS

from conftest import KORANYI_PSI0


def report(num, ok, detail):
    line = "ACCEPTANCE %d %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def quadrature_target():
    val, _ = integrate.quad(lambda s: np.sqrt(1.0 - s**4), 0.0, 1.0, epsabs=1e-14)
    return val


def test_criterion_1_koranyi_beta_constancy(koranyi):
    start = time.monotonic()
    target = quadrature_target()
    assert target == pytest.approx(KORANYI_PSI0, abs=1e-12)

    const = beta_constancy(koranyi, n_directions=8, n_samples=1_000_000, seed=2)
    pairwise_ok = const.constant_within_tolerance
    values = [r.value.value for r in const.results]
    match_ok = all(abs(v - target) <= 0.01 * target for v in values)
    elapsed = time.monotonic() - start
    report(
        1,
        pairwise_ok and match_ok and elapsed <= 120.0,
        "beta in [%.6f, %.6f], target %.6f, max pairwise dev %.2e, %.1fs"
        % (min(values), max(values), target, const.max_pairwise_dev, elapsed),
    )


def test_criterion_2_profile_concavity(koranyi, twoball):
    profile = slice_profile(koranyi, [1.0, 0.0], grid_size=41, n_samples=1_000_000, seed=7)
    rep = concavity_report(profile)  # exponent 1/(n-1) = 1/2
    koranyi_ok = rep.exponent == 0.5 and rep.count == 0

    profile2 = slice_profile(twoball, [1.0, 0.0], grid_size=41, n_samples=200_000, seed=7)
    rep2 = concavity_report(profile2)
    twoball_ok = rep2.count >= 1
    report(
        2,
        koranyi_ok and twoball_ok,
        "koranyi violations %d (worst margin %.2e); two-ball violations %d (worst %.2e)"
        % (rep.count, rep.worst_margin, rep2.count, rep2.worst_margin),
    )


def test_criterion_3_halfspace_identity(koranyi, h1):
    plane = vertical_plane(h1, [1.0, 0.0])
    per1 = perimeter_ball(plane, koranyi, h1.identity(), 1.0, n_samples=400_000, seed=7, key=(0,))
    psi0 = slice_area(koranyi, [1.0, 0.0], 0.0, n_samples=400_000, seed=11)
    dev0 = abs(per1.value.value - psi0.value)
    tol0 = 3.0 * joint_stderr(per1.value, psi0)
    identity_ok = dev0 <= tol0

    ratios = []
    for i, t in enumerate((1.0, 0.5, 0.25)):
        per = perimeter_ball(plane, koranyi, h1.identity(), t, n_samples=400_000, seed=7, key=(i + 1,))
        ratios.append((per.value.value / t**3, per.value.stderr / t**3))
    scaling_ok = all(
        abs(a - b) <= 3.0 * np.hypot(sa, sb)
        for (a, sa) in ratios
        for (b, sb) in ratios
    )
    report(
        3,
        identity_ok and scaling_ok,
        "perimeter %.5f vs slice %.5f (dev %.2e <= %.2e); ratios %s"
        % (per1.value.value, psi0.value, dev0, tol0, [round(r, 5) for r, _ in ratios]),
    )


def test_criterion_4_upper_blowup(koranyi, h1):
    start = time.monotonic()
    surf = coordinate_plane(h1)  # {vertical coordinate = 0} at (1, 0, 0)
    sched = default_schedule(t0=0.4, halvings=6, samples_per_ball=200_000, seed=7)
    rep = federer_density(surf, koranyi, sched=sched)
    b = beta(koranyi, [0.0, 1.0], n_samples=1_000_000, seed=11)
    dev = abs(rep.extrapolated_theta.value - b.value.value)
    tol = max(0.05 * b.value.value, 3.0 * joint_stderr(rep.extrapolated_theta, b.value))
    elapsed = time.monotonic() - start
    report(
        4,
        dev <= tol and elapsed <= 600.0,
        "theta %.5f vs beta %.5f (dev %.2e <= %.2e), %.1fs"
        % (rep.extrapolated_theta.value, b.value.value, dev, tol, elapsed),
    )


def test_criterion_5_convex_density_coincidence(koranyi, dinf2, starball, h1):
    surf = coordinate_plane(h1)
    sched = default_schedule(t0=0.4, halvings=4, samples_per_ball=100_000, seed=7)
    details = []
    ok = True
    for gauge in (koranyi, dinf2, starball):
        rep = federer_density(surf, gauge, sched=sched)
        dev = abs(rep.extrapolated_theta.value - rep.centered_extrapolated.value)
        tol = 3.0 * joint_stderr(rep.extrapolated_theta, rep.centered_extrapolated)
        ok = ok and dev <= tol
        details.append("%s: dev %.2e <= %.2e" % (gauge.kind, dev, tol))
    report(5, ok, "; ".join(details))


def test_criterion_6_symmetry_certification(koranyi, dinf2, starball, h1):
    ok = True
    details = []
    for gauge in (koranyi, dinf2, starball):
        rep = symmetry_check(gauge, samples=20_000, seed=7)
        ok = ok and rep.outcome == PASS
        details.append("%s r0=%.4f %s" % (gauge.kind, rep.info["r0"], rep.outcome))
    aniso = symmetry_check(AnisotropicGauge(h1, scale=2.0), samples=20_000, seed=7)
    rot = {c.name: c for c in aniso.checks}["rotation-invariance"]
    aniso_ok = aniso.outcome == FAIL and not rot.passed and aniso.info["witness"] is not None
    details.append("aniso fails rotation invariance with witness: %s" % aniso_ok)
    report(6, ok and aniso_ok, "; ".join(details))


def test_criterion_7_exactness_suite(koranyi, h1):
    rng = np.random.default_rng(7)

    def pts(k):
        out = rng.uniform(-1.0, 1.0, size=(k, 3))
        out[:, :2] *= 2.0
        out[:, 2] *= 4.0
        return out

    p, q, w = pts(1000), pts(1000), pts(1000)
    assoc = np.max(np.abs(h1.multiply(h1.multiply(p, q), w) - h1.multiply(p, h1.multiply(q, w))))
    r = rng.uniform(0.25, 4.0, 1000)
    auto = np.max(np.abs(h1.dilate(r, h1.multiply(p, q)) - h1.multiply(h1.dilate(r, p), h1.dilate(r, q))))

    nu = direction(h1, np.array([0.6, -0.8]))
    t, n = h1.split(nu, p)
    from carnotperim.groups import embed_v1

    recomp = np.max(np.abs(h1.multiply(embed_v1(h1, t[:, None] * nu), n) - p))
    ortho = np.max(np.abs(h1.v1(n) @ nu))

    hom = np.max(np.abs(koranyi.norm_many(h1.dilate(r, p)) - r * koranyi.norm_many(p)))

    inside = p[koranyi.in_ball(p)]
    ball_sym = bool(np.all(koranyi.in_ball(-inside)))

    even_ok = True
    for i, tt in enumerate((0.2, 0.5, 0.8)):
        a = slice_area(koranyi, nu, tt, n_samples=100_000, seed=7, key=(i, 0))
        b = slice_area(koranyi, nu, -tt, n_samples=100_000, seed=7, key=(i, 1))
        even_ok = even_ok and abs(a.value - b.value) <= 3.0 * (a.stderr + b.stderr)

    ok = (
        assoc < 1e-10
        and auto < 1e-10
        and recomp < 1e-10
        and ortho < 1e-12
        and hom < 1e-12 * 16.0
        and ball_sym
        and even_ok
    )
    report(
        7,
        ok,
        "assoc %.1e, automorphism %.1e, recompose %.1e, split-ortho %.1e, "
        "homogeneity %.1e, ball symmetric %s, psi even %s"
        % (assoc, auto, recomp, ortho, hom, ball_sym, even_ok),
    )


def test_criterion_8_cli_determinism(tmp_path):
    cases = [
        ["slice-profile", "--gauge", "koranyi", "--nu", "1,0", "--samples", "20000",
         "--grid", "11", "--seed", "7"],
        ["beta", "--gauge", "koranyi", "--nu", "0.6,0.8", "--samples", "20000", "--seed", "3"],
        ["verify", "--suite", "symmetry", "--gauge", "dinf:eps2=2", "--samples", "4000",
         "--seed", "5"],
        ["blowup", "--surface", "vplane:nu=1,0", "--gauge", "koranyi", "--radii", "0.4:2",
         "--samples", "10000", "--seed", "9"],
    ]
    ok = True
    for i, argv in enumerate(cases):
        a = tmp_path / ("a%d.out" % i)
        b = tmp_path / ("b%d.out" % i)
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(8, ok, "%d CLI invocations byte-identical on repeat" % len(cases))
