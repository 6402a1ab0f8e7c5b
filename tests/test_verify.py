import math

import numpy as np
import pytest

from carnotperim import (
    AnisotropicGauge,
    StarBodyGauge,
    blowup_suite,
    busemann_suite,
    convexity_check,
    parse_gauge,
    run_all,
    substream,
    symmetry_check,
    vertical_plane,
)
from carnotperim import verify as verify_module
from carnotperim.federer import default_schedule
from carnotperim.gauges import sample_in_ball
from carnotperim.verify import FAIL, PASS, SKIPPED, _random_rotation


def test_convexity_pass_for_convex_catalog(koranyi, dinf2, starball):
    for g in (koranyi, dinf2, starball):
        rep = convexity_check(g, samples=20_000, seed=7)
        assert rep.outcome == PASS, g.spec_string()


def test_convexity_fails_with_witness_for_twoball(twoball):
    rep = convexity_check(twoball, samples=20_000, seed=7)
    assert rep.outcome == FAIL
    assert rep.info["witness"] is not None


def test_symmetry_pass_koranyi(koranyi):
    rep = symmetry_check(koranyi, samples=20_000, seed=7)
    assert rep.outcome == PASS
    assert rep.info["r0"] == pytest.approx(1.0, abs=1e-6)


def test_symmetry_pass_dinf_and_starball(dinf2, starball):
    rep = symmetry_check(dinf2, samples=20_000, seed=7)
    assert rep.outcome == PASS
    assert rep.info["r0"] == pytest.approx(1.0, abs=1e-6)
    rep = symmetry_check(starball, samples=10_000, seed=7)
    assert rep.outcome == PASS
    assert rep.info["r0"] == pytest.approx(0.5, abs=1e-6)


def test_symmetry_user_supplied_family(koranyi, h1):
    quarter_turns = [
        np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        for a in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
    ]
    rep = symmetry_check(koranyi, rotations=quarter_turns, samples=5_000, seed=7)
    assert rep.outcome == PASS
    with pytest.raises(ValueError):
        symmetry_check(koranyi, rotations=[np.array([[2.0, 0.0], [0.0, 1.0]])], samples=1_000)


def test_symmetry_fails_anisotropic_with_witness(h1):
    rep = symmetry_check(AnisotropicGauge(h1, scale=2.0), samples=10_000, seed=7)
    assert rep.outcome == FAIL
    rot = {c.name: c for c in rep.checks}["rotation-invariance"]
    assert not rot.passed
    assert rep.info["witness"] is not None


def test_trace_disc_tolerance_is_the_bound_applied(h1):
    gauge = parse_gauge(h1, "starball:rho=2")
    rep = symmetry_check(gauge, samples=2_000, seed=7)
    disc = {c.name: c for c in rep.checks}["trace-is-a-disc"]
    rot_tol = rep.checks[0].tolerance
    assert rep.info["r0"] == pytest.approx(2.0)
    assert disc.tolerance == max(rot_tol, 1e-7 * rep.info["r0"]) > 1e-7
    assert disc.passed == (disc.observed <= disc.tolerance)


def exact_rotation_scan(gauge, samples, seed):
    """symmetry_check's rotation-invariance scan with norm_many on every
    rotated row: the worst deviation and its witness."""
    model = gauge.model
    rng = substream(seed, 31)
    family = [_random_rotation(rng, model.m1) for _ in range(64)]
    pts = sample_in_ball(gauge, samples, rng, radius=2.0)
    base = gauge.norm_many(pts)
    worst, witness = -math.inf, None
    for R in family:
        rotated = pts.copy()
        rotated[:, : model.m1] = pts[:, : model.m1] @ R.T
        dev = np.abs(gauge.norm_many(rotated) - base)
        i = int(np.argmax(dev))
        if dev[i] > worst:
            worst, witness = float(dev[i]), {"point": pts[i].tolist(), "rotation": R.tolist()}
    return worst, witness


@pytest.mark.parametrize("group, spec", [
    ("h1", "koranyi"), ("h1", "dinf:eps2=1"), ("h1", "starball:rho=0.5"), ("h1", "aniso:scale=2"),
    ("h1", "twoball"), ("h2", "koranyi"), ("h2", "starball:rho=0.5"), ("h2", "aniso:scale=2"),
])
def test_rotation_invariance_matches_the_exact_scan(request, group, spec):
    gauge = parse_gauge(request.getfixturevalue(group), spec)
    rep = symmetry_check(gauge, samples=4_000, seed=7)
    rot = rep.checks[0]
    worst, witness = exact_rotation_scan(gauge, 4_000, 7)
    assert rot.passed == (worst <= rot.tolerance)
    assert rep.info["witness"] == (None if rot.passed else witness)
    if isinstance(gauge, StarBodyGauge) and rot.passed:
        # certified rows read 0; the exact scan reads bisection noise, if any
        assert rot.observed == 0.0 and worst <= gauge.norm_tolerance(2.0)
    else:
        assert rot.observed == worst


def stretched_ball(model, e, rho=0.5):
    """The Euclidean ball of radius rho on H^1 with x1 stretched by 1 + e."""
    def oracle(pts):
        return (pts[..., 0] * (1.0 + e)) ** 2 + pts[..., 1] ** 2 + pts[..., 2] ** 2 <= rho * rho

    return StarBodyGauge(model, oracle, [rho, rho], "stretched", True, True)


@pytest.mark.parametrize("e, regime", [(1e-10, "band"), (1e-9, "tolerance"), (1e-8, "fail")])
def test_rotation_invariance_in_three_regimes(h1, e, regime):
    gauge = stretched_ball(h1, e)
    rep = symmetry_check(gauge, samples=2_000, seed=7)
    rot = rep.checks[0]
    worst, witness = exact_rotation_scan(gauge, 2_000, 7)
    band = gauge.norm_tolerance(2.0)  # the widest certificate band, near = 2
    if regime == "band":  # every rotated row is certified
        assert 0.0 < worst <= band
        assert rot.observed == 0.0 and rot.passed
    elif regime == "tolerance":  # the worst rows are not, and read their exact deviation
        assert band < worst <= rot.tolerance
        assert rot.observed == worst and rot.passed
    else:
        assert worst > rot.tolerance
        assert rot.observed == worst and not rot.passed
        assert rep.info["witness"] == witness


@pytest.mark.parametrize("group", ["h1", "h2"])
def test_symmetry_check_oracle_rows_per_rotated_sample(request, group):
    # every oracle row of the check, the base norms and sampling included;
    # bisecting every rotated row takes about 43 per rotated sample
    gauge = parse_gauge(request.getfixturevalue(group), "starball:rho=0.5")
    oracle, rows = gauge.oracle, []

    def counted(pts):
        rows.append(len(pts))
        return oracle(pts)

    gauge.oracle = counted
    rep = symmetry_check(gauge, samples=20_000, seed=7)
    assert rep.outcome == PASS
    assert sum(rows) <= 5 * 64 * 20_000


def test_busemann_suite_koranyi(koranyi):
    rep = busemann_suite(koranyi, [1.0, 0.0], grid_size=21, n_samples=50_000, seed=7)
    assert rep.outcome == PASS
    names = [c.name for c in rep.checks]
    assert "concavity-violations" in names and "beta-equals-central-slice" in names


def test_busemann_suite_starball(starball):
    rep = busemann_suite(starball, [1.0, 0.0], grid_size=21, n_samples=30_000, seed=7)
    assert rep.outcome == PASS


def test_busemann_suite_twoball_hypothesis_unmet(twoball):
    rep = busemann_suite(twoball, [1.0, 0.0], grid_size=41, n_samples=50_000, seed=7)
    # non-convex body: the suite must not report a theorem violation
    assert rep.outcome == SKIPPED
    assert rep.passed
    # ... but the informational checks do record the concavity break
    conc = {c.name: c for c in rep.checks}["concavity-violations"]
    assert conc.observed >= 1


def test_blowup_suite_vplane(h1, koranyi):
    plane = vertical_plane(h1, [1.0, 0.0])
    sched = default_schedule(t0=0.4, halvings=3, samples_per_ball=40_000, seed=7)
    rep = blowup_suite([plane], koranyi, sched=sched, seed=7, rel_tol=0.02,
                       beta_samples=60_000)
    assert rep.outcome == PASS
    entry = rep.info["points"][0]
    assert "ball_constants" in entry
    assert entry["ball_constants"]["c_qm1"] == pytest.approx(
        entry["ball_constants"]["omega"] / 8.0
    )


def test_blowup_suite_dinf_rectangle(h1, dinf2):
    # implied constants for the rectangle ball: omega = 4 / eps2^2, c = omega / 8
    plane = vertical_plane(h1, [1.0, 0.0])
    sched = default_schedule(t0=0.4, halvings=3, samples_per_ball=40_000, seed=7)
    rep = blowup_suite([plane], dinf2, sched=sched, seed=7, beta_samples=60_000)
    assert rep.outcome == PASS
    omega = rep.info["points"][0]["ball_constants"]["omega"]
    assert omega == pytest.approx(4.0 / dinf2.eps2**2, rel=0.02)


def test_run_all_koranyi(h1, koranyi):
    reports = run_all(h1, koranyi, seed=7, samples=10_000, profile_samples=20_000)
    assert [r.suite for r in reports] == ["convexity", "symmetry", "busemann", "blowup"]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("samples, profile_samples, calls",
                         [(5_000, 5_000, 1), (20_000, 30_000, 1), (5_000, 8_000, 2)])
def test_run_all_runs_each_convexity_check_once(monkeypatch, h1, starball, samples,
                                                profile_samples, calls):
    # the busemann suite checks min(profile_samples, 20000) samples; when that
    # is run_all's own count the report is shared, not sampled again
    seen = []
    real = verify_module.convexity_sample

    def counted(gauge, n, seed):
        seen.append(n)
        return real(gauge, n, seed)

    monkeypatch.setattr(verify_module, "convexity_sample", counted)
    reports = run_all(h1, starball, seed=7, samples=samples, profile_samples=profile_samples,
                      blowup_sched=default_schedule(t0=0.4, halvings=1, samples_per_ball=10_000,
                                                    seed=7))
    assert len(seen) == calls
    assert reports[2] == busemann_suite(starball, [1.0, 0.0], n_samples=profile_samples, seed=7)


def test_run_all_abelian_disc(r2, disc):
    # single-layer model: the blowup suite does not apply, the rest must pass
    reports = run_all(r2, disc, seed=7, samples=5_000, profile_samples=10_000)
    assert [r.suite for r in reports] == ["convexity", "symmetry", "busemann"]
    assert all(r.outcome == PASS for r in reports)


def test_reports_serialize(koranyi):
    rep = convexity_check(koranyi, samples=5_000, seed=7)
    d = rep.as_dict()
    assert d["suite"] == "convexity"
    assert isinstance(d["checks"], list) and d["checks"]
