import numpy as np
import pytest

from carnotperim import (
    DensitySchedule,
    beta,
    centered_density,
    default_schedule,
    federer_density,
    vertical_plane,
    coordinate_plane,
)
from carnotperim.mc import joint_stderr

from conftest import KORANYI_PSI0


def small_sched(seed=7, samples=60_000, halvings=3):
    return default_schedule(
        t0=0.4, halvings=halvings, samples_per_ball=samples, seed=seed,
        multistart_count=4, local_steps=16,
    )


def test_schedule_validation():
    with pytest.raises(ValueError):
        DensitySchedule((0.4, 0.4))
    with pytest.raises(ValueError):
        DensitySchedule((0.1, 0.4))
    with pytest.raises(ValueError, match="at least one radius"):
        DensitySchedule(())
    s = default_schedule(t0=0.4, halvings=2)
    assert s.radii == (0.4, 0.2, 0.1)


def test_halfspace_density_equals_beta(h1, koranyi):
    plane = vertical_plane(h1, [1.0, 0.0])
    rep = federer_density(plane, koranyi, sched=small_sched())
    assert abs(rep.extrapolated_theta.value - KORANYI_PSI0) <= max(
        0.02 * KORANYI_PSI0, 3.0 * rep.extrapolated_theta.stderr
    )
    assert rep.tail_converged
    assert not rep.truncated


def test_halfspace_centered_ratio_scale_free(h1, koranyi):
    # the halfspace blow-up is exact at every radius: ratios agree across t
    plane = vertical_plane(h1, [1.0, 0.0])
    rep = federer_density(plane, koranyi, sched=small_sched())
    recs = rep.records
    for a in recs:
        for b in recs:
            dev = abs(a.centered_ratio - b.centered_ratio)
            assert dev <= 3.0 * np.hypot(a.centered_stderr, b.centered_stderr)


def test_centered_never_beats_best_on_shared_cloud(h1, koranyi):
    surf = coordinate_plane(h1)
    rep = federer_density(surf, koranyi, sched=small_sched(samples=40_000))
    for rec in rep.records:
        assert rec.centered_ratio <= rec.ratio + 1e-12  # same cloud: exact bound


def test_convex_gauge_center_degeneracy(h1, koranyi):
    # for a convex ball the optimal center offset degenerates to zero:
    # best and centered ratios agree at the smallest radii
    plane = vertical_plane(h1, [1.0, 0.0])
    rep = federer_density(plane, koranyi, sched=small_sched())
    for rec in rep.records[-2:]:
        dev = abs(rec.ratio - rec.centered_ratio)
        assert dev <= 3.0 * np.hypot(rec.stderr, rec.centered_stderr)


def test_tplane_density_converges_to_beta(h1, koranyi):
    surf = coordinate_plane(h1)
    sched = default_schedule(t0=0.4, halvings=4, samples_per_ball=60_000, seed=7,
                             multistart_count=4, local_steps=16)
    rep = federer_density(surf, koranyi, sched=sched)
    b = beta(koranyi, [0.0, 1.0], n_samples=100_000, seed=11)
    tol = max(0.05 * b.value.value, 3.0 * joint_stderr(rep.extrapolated_theta, b.value))
    assert abs(rep.extrapolated_theta.value - b.value.value) <= tol


def test_centered_density_function(h1, koranyi):
    surf = coordinate_plane(h1)
    est = centered_density(surf, koranyi, sched=small_sched(samples=40_000))
    assert abs(est.value - KORANYI_PSI0) <= max(0.05 * KORANYI_PSI0, 3.0 * est.stderr)


def test_centered_density_equals_federer_centered_extrapolation(h1, koranyi):
    # both run one density driver with one failure policy (refused radii are
    # skipped), so the centered estimates agree exactly, also when a radius
    # is refused: on tplane the graph-height bisection fails at t = 0.8
    sched = small_sched(samples=20_000)
    for surf in (coordinate_plane(h1), vertical_plane(h1, [1.0, 0.0])):
        rep = federer_density(surf, koranyi, sched=sched)
        assert len(rep.records) == len(sched.radii)
        assert not rep.truncated
        assert centered_density(surf, koranyi, sched=sched) == rep.centered_extrapolated
    surf = coordinate_plane(h1)
    sched = DensitySchedule((0.8, 0.4, 0.2, 0.1), 2, 4, 10_000, 7)
    rep = federer_density(surf, koranyi, sched=sched)
    assert tuple(r.t for r in rep.records) == (0.4, 0.2, 0.1)
    assert rep.truncated
    assert centered_density(surf, koranyi, sched=sched) == rep.centered_extrapolated


def test_running_sup_is_suffix_max(h1, koranyi):
    plane = vertical_plane(h1, [1.0, 0.0])
    rep = federer_density(plane, koranyi, sched=small_sched())
    ratios = [r.ratio for r in rep.records]
    expect = [max(ratios[k:]) for k in range(len(ratios))]
    assert list(rep.running_sup) == expect


def test_density_determinism(h1, koranyi):
    plane = vertical_plane(h1, [1.0, 0.0])
    a = federer_density(plane, koranyi, sched=small_sched(samples=20_000, halvings=2))
    b = federer_density(plane, koranyi, sched=small_sched(samples=20_000, halvings=2))
    assert a.extrapolated_theta == b.extrapolated_theta
    assert [r.ratio for r in a.records] == [r.ratio for r in b.records]


def test_density_workers_invariant(h1, koranyi):
    plane = vertical_plane(h1, [1.0, 0.0])
    a = federer_density(plane, koranyi, sched=small_sched(samples=20_000, halvings=2), workers=1)
    b = federer_density(plane, koranyi, sched=small_sched(samples=20_000, halvings=2), workers=3)
    assert a.extrapolated_theta == b.extrapolated_theta


def test_anchor_point_enforced(h1, koranyi):
    plane = vertical_plane(h1, [1.0, 0.0])
    with pytest.raises(ValueError):
        federer_density(plane, koranyi, x=np.array([0.0, 0.3, 0.0]), sched=small_sched())


def test_scoring_gauge_sees_under_a_tenth_of_the_cloud(h1, koranyi, monkeypatch):
    # deterministic guard against a silent fallback to full-cloud scoring:
    # count the rows ratio_on_cloud hands to the gauge per call
    import carnotperim.federer as federer_module
    from carnotperim.gauges import Gauge

    per_call, active = [], []
    real_ratio, real_in_ball = federer_module.ratio_on_cloud, Gauge.in_ball

    def counted_ratio(*args):
        active.append(0)
        try:
            return real_ratio(*args)
        finally:
            per_call.append(active.pop())

    def counted_in_ball(self, pts, *args, **kwargs):
        if active:
            active[-1] += len(pts)
        return real_in_ball(self, pts, *args, **kwargs)

    monkeypatch.setattr(federer_module, "ratio_on_cloud", counted_ratio)
    monkeypatch.setattr(Gauge, "in_ball", counted_in_ball)
    samples = 20_000
    sched = default_schedule(t0=0.2, halvings=1, samples_per_ball=samples, seed=7)
    federer_density(coordinate_plane(h1), koranyi, sched=sched)
    assert len(per_call) > 100
    assert 0 < max(per_call) < 0.1 * samples


def one_row_pattern_search(score, w0, gauge, budget):
    """The compass search as it was when every candidate was clamped with
    its own one-row norm call."""
    from carnotperim.federer import PATTERN_MIN_STEP, PATTERN_STEP0

    def clamp(w):
        nw = gauge.norm(w)
        return gauge.model.dilate(1.0 / nw, w) if nw > 1.0 else w

    w = clamp(np.asarray(w0, dtype=float))
    val, se = score(w)
    step, evals = PATTERN_STEP0, 0
    while evals < budget and step >= PATTERN_MIN_STEP:
        improved = False
        for j in range(gauge.model.n):
            for sign in (1.0, -1.0):
                cand = w.copy()
                cand[j] += sign * step
                cand = clamp(cand)
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


@pytest.mark.parametrize("group", ["h1", "h2"])
@pytest.mark.parametrize("surface", ["tplane", "vplane"])
@pytest.mark.parametrize("spec", ["koranyi", "aniso", "starball:rho=0.5"])
def test_pattern_search_matches_one_row_clamps(request, group, surface, spec):
    from carnotperim import parse_gauge, parse_surface
    from carnotperim.federer import _ball_starts, _pattern_search
    from carnotperim.surfaces import ratio_on_cloud, sample_patch

    model = request.getfixturevalue(group)
    if surface == "vplane":
        surface = "vplane:nu=1,1" + ",0" * (model.m1 - 2)
    surf, gauge, t = parse_surface(model, surface), parse_gauge(model, spec), 0.2
    cloud = sample_patch(surf, gauge, t, 5000, seed=3)

    def score(w):
        return ratio_on_cloud(cloud, gauge, model.multiply(surf.x, model.dilate(t, w)), surf)

    for w0 in [model.identity()] + _ball_starts(gauge, 2, 3, 0):
        got = _pattern_search(score, w0, gauge, 24)
        want = one_row_pattern_search(score, w0, gauge, 24)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def test_pattern_search_clamps_each_pair_with_one_norm_call(h1, monkeypatch):
    # deterministic guard: one star_norm call for the start of each search,
    # then one per coordinate pair, never one per candidate
    import carnotperim.federer as federer_module
    import carnotperim.gauges as gauges_module

    searches, active = [], []
    real_search, real_star = federer_module._pattern_search, gauges_module.star_norm
    real_ratio = federer_module.ratio_on_cloud

    def counted_search(*args):
        searches.append({"rows": [], "scores": 0})
        active.append(searches[-1])
        try:
            return real_search(*args)
        finally:
            active.pop()

    def counted_star(model, oracle, p, *args):
        if active:
            active[-1]["rows"].append(len(p))
        return real_star(model, oracle, p, *args)

    def counted_ratio(*args):
        if active:
            active[-1]["scores"] += 1
        return real_ratio(*args)

    monkeypatch.setattr(federer_module, "_pattern_search", counted_search)
    monkeypatch.setattr(gauges_module, "star_norm", counted_star)
    monkeypatch.setattr(federer_module, "ratio_on_cloud", counted_ratio)
    gauge = gauges_module.parse_gauge(h1, "starball:rho=0.5")
    sched = default_schedule(t0=0.4, halvings=1, samples_per_ball=5000, seed=7)
    federer_density(vertical_plane(h1, [1.0, 0.0]), gauge, sched=sched)
    assert len(searches) == 2 * sched.multistart_count
    for s in searches:
        start, pairs, candidates = s["rows"][0], s["rows"][1:], s["scores"] - 1
        assert start == 1 and pairs and all(rows == 2 for rows in pairs)
        # every pair scores its + candidate, and its - one only if + fails
        assert len(pairs) <= candidates <= 2 * len(pairs)


def test_tail_estimates_count_the_tail_samples(h1, koranyi):
    rep = federer_density(vertical_plane(h1, [1.0, 0.0]), koranyi, sched=small_sched(samples=5000))
    tail = sum(r.n_samples for r in rep.records[-3:])
    assert len(rep.records) == 4 and tail == 15000
    assert rep.extrapolated_theta.n_samples == rep.centered_extrapolated.n_samples == tail
