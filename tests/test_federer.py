import numpy as np
import pytest

from carnotperim import (
    DensitySchedule,
    beta,
    default_schedule,
    federer_density,
    vertical_plane,
    coordinate_plane,
)
from carnotperim.mc import joint_stderr

from conftest import KORANYI_PSI0


def small_sched(seed=7, samples=60_000, halvings=3):
    return default_schedule(t0=0.4, halvings=halvings, samples_per_ball=samples, seed=seed)


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


def scan_scores(monkeypatch):
    """Record every ratio_on_cloud call of federer as (cloud, centre, score);
    the clouds are kept alive, so each stays a distinct object."""
    import carnotperim.federer as federer_module

    calls = []
    real_ratio = federer_module.ratio_on_cloud

    def recording_ratio(cloud, gauge, y, spec):
        out = real_ratio(cloud, gauge, y, spec)
        calls.append((cloud, np.array(y), out))
        return out

    monkeypatch.setattr(federer_module, "ratio_on_cloud", recording_ratio)
    return calls


def test_centered_never_beats_best_on_shared_cloud(h1, koranyi, monkeypatch):
    # the scan shares one search cloud and holds s = 0, so on that cloud the
    # centred score is an exact lower bound of the best scan score
    from carnotperim.federer import SCAN

    calls = scan_scores(monkeypatch)
    rep = federer_density(coordinate_plane(h1), koranyi, sched=small_sched(samples=40_000))
    per_radius = len(SCAN) + 1
    assert len(calls) == per_radius * len(rep.records)
    for i, rec in enumerate(rep.records):
        scan = calls[i * per_radius : (i + 1) * per_radius - 1]
        assert all(c is scan[0][0] for c, _, _ in scan)
        assert rec.centered_ratio == scan[len(SCAN) // 2][2][0]
        assert rec.centered_ratio <= max(v for _, _, (v, _) in scan)


def test_selected_centre_is_within_one_se_of_the_best(h1, koranyi, monkeypatch):
    # the pick is the smallest |s| whose search-cloud score is within one
    # stderr of the best scan score, hence also of the centred score
    from carnotperim.federer import SCAN

    calls = scan_scores(monkeypatch)
    rep = federer_density(coordinate_plane(h1), koranyi, sched=small_sched(samples=40_000))
    per_radius = len(SCAN) + 1
    assert len(calls) == per_radius * len(rep.records)
    for i, rec in enumerate(rep.records):
        scan = calls[i * per_radius : (i + 1) * per_radius - 1]
        values = [v for _, _, (v, _) in scan]
        best_v, best_se = max(c[2] for c in scan)
        picked = [j for j, (_, y, _) in enumerate(scan) if np.array_equal(y, rec.best_center)]
        assert len(picked) == 1
        j = picked[0]
        assert values[j] >= rec.centered_ratio - best_se
        assert values[j] >= best_v - best_se
        assert all(values[i2] < best_v - best_se for i2 in range(len(SCAN))
                   if abs(SCAN[i2]) < abs(SCAN[j]))
        assert (rec.centered_ratio, rec.centered_stderr) == scan[len(SCAN) // 2][2]
        # the reported ratio is the rescore on the last, fresh cloud
        assert (rec.ratio, rec.stderr) == calls[(i + 1) * per_radius - 1][2]


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
    sched = default_schedule(t0=0.4, halvings=4, samples_per_ball=60_000, seed=7)
    rep = federer_density(surf, koranyi, sched=sched)
    b = beta(koranyi, [0.0, 1.0], n_samples=100_000, seed=11)
    tol = max(0.05 * b.value.value, 3.0 * joint_stderr(rep.extrapolated_theta, b.value))
    assert abs(rep.extrapolated_theta.value - b.value.value) <= tol


def test_centered_extrapolation_matches_psi0(h1, koranyi):
    surf = coordinate_plane(h1)
    est = federer_density(surf, koranyi, sched=small_sched(samples=40_000)).centered_extrapolated
    assert abs(est.value - KORANYI_PSI0) <= max(0.05 * KORANYI_PSI0, 3.0 * est.stderr)


def test_refused_radii_are_skipped_and_flagged(h1, koranyi):
    # refused radii are skipped, and the centred extrapolation is taken over
    # the radii that remain: on tplane the graph-height bracket fails at t = 0.8
    sched = small_sched(samples=20_000)
    for surf in (coordinate_plane(h1), vertical_plane(h1, [1.0, 0.0])):
        rep = federer_density(surf, koranyi, sched=sched)
        assert len(rep.records) == len(sched.radii)
        assert not rep.truncated
    surf = coordinate_plane(h1)
    sched = DensitySchedule((0.8, 0.4, 0.2, 0.1), 10_000, 7)
    rep = federer_density(surf, koranyi, sched=sched)
    assert tuple(r.t for r in rep.records) == (0.4, 0.2, 0.1)
    assert rep.truncated
    # the inverse-variance mean of the three centred ratios that remain
    tail = [(r.centered_ratio, r.centered_stderr) for r in rep.records]
    w = [1.0 / (s * s) for _, s in tail]
    centred = rep.centered_extrapolated
    assert centred.value == sum(wi * v for wi, (v, _) in zip(w, tail)) / sum(w)
    assert centred.stderr == np.sqrt(1.0 / sum(w))
    assert centred.n_samples == 3 * 10_000


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


def test_anchor_point_enforced(h1, koranyi):
    plane = vertical_plane(h1, [1.0, 0.0])
    with pytest.raises(ValueError):
        federer_density(plane, koranyi, x=np.array([0.0, 0.3, 0.0]), sched=small_sched())


def test_scoring_gauge_sees_under_a_tenth_of_the_cloud(h1, koranyi, monkeypatch):
    # deterministic guard against a silent fallback to full-cloud scoring:
    # count the rows ratio_on_cloud hands to the gauge per call on the
    # search clouds (the rescore cloud spans little more than its one ball)
    import carnotperim.federer as federer_module
    from carnotperim.federer import SCAN

    per_call, active = [], []
    # the override that runs, not Gauge.in_ball
    real_ratio, real_in_ball = federer_module.ratio_on_cloud, type(koranyi).in_ball

    def counted_ratio(cloud, *args):
        active.append(0)
        try:
            return real_ratio(cloud, *args)
        finally:
            per_call.append((cloud, active.pop()))

    def counted_in_ball(self, pts, *args, **kwargs):
        if active:
            active[-1] += len(pts)
        return real_in_ball(self, pts, *args, **kwargs)

    monkeypatch.setattr(federer_module, "ratio_on_cloud", counted_ratio)
    monkeypatch.setattr(type(koranyi), "in_ball", counted_in_ball)
    samples = 20_000
    sched = default_schedule(t0=0.2, halvings=1, samples_per_ball=samples, seed=7)
    federer_density(coordinate_plane(h1), koranyi, sched=sched)
    clouds = {id(c): c for c, _ in per_call}
    rows = {k: [n for c, n in per_call if id(c) == k] for k in clouds}
    search = [r for r in rows.values() if len(r) > 1]
    assert len(search) == 2 and all(len(r) == len(SCAN) for r in search)
    assert 0 < max(max(r) for r in search) < 0.1 * samples


def test_search_cloud_keeps_and_translates_under_half_of_its_samples(h1, koranyi, monkeypatch):
    # deterministic guard on the work the pruned cloud saves: the search
    # cloud keeps only its ok samples within reach (37% at t = 0.1), and its
    # 21 scorings hand model.multiply under a quarter of the cloud each (a
    # window over every ok sample of the cloud held about 47%)
    import carnotperim.federer as federer_module
    from carnotperim.federer import SCAN
    from carnotperim.groups import GroupModel

    per_call, active = [], []
    real_ratio, real_multiply = federer_module.ratio_on_cloud, GroupModel.multiply

    def counted_ratio(cloud, *args):
        active.append(0)
        try:
            return real_ratio(cloud, *args)
        finally:
            per_call.append((cloud, active.pop()))

    def counted_multiply(self, p, q):
        if active:
            active[-1] += int(np.prod(np.broadcast_shapes(np.shape(p), np.shape(q))[:-1]))
        return real_multiply(self, p, q)

    monkeypatch.setattr(federer_module, "ratio_on_cloud", counted_ratio)
    monkeypatch.setattr(GroupModel, "multiply", counted_multiply)
    n = 20_000
    federer_density(coordinate_plane(h1), koranyi, sched=DensitySchedule((0.1,), n, 7))
    search = per_call[: len(SCAN)]
    assert len(per_call) == len(SCAN) + 1 and len({id(c) for c, _ in search}) == 1
    assert len(search[0][0].alpha) <= 0.45 * n
    assert 0 < sum(rows for _, rows in search) <= 0.25 * len(SCAN) * n


def test_each_radius_draws_two_clouds_and_scores_the_scan_once(h1, monkeypatch):
    # deterministic perf guard: one search cloud scored at most len(SCAN)
    # times and one rescore cloud scored once per radius (the compass search
    # scored about 126 candidates on a single cloud)
    import carnotperim.federer as federer_module
    from carnotperim import parse_gauge

    draws = []
    real_patch = federer_module.sample_patch

    def counted_patch(*args, **kwargs):
        cloud = real_patch(*args, **kwargs)
        draws.append(cloud)
        return cloud

    calls = scan_scores(monkeypatch)
    monkeypatch.setattr(federer_module, "sample_patch", counted_patch)
    cases = ((coordinate_plane(h1), "koranyi"),
             (vertical_plane(h1, [1.0, 0.0]), "starball:rho=0.5"))
    for surf, spec in cases:
        draws.clear()
        calls.clear()
        sched = default_schedule(t0=0.2, halvings=2, samples_per_ball=5000, seed=7)
        rep = federer_density(surf, parse_gauge(h1, spec), sched=sched)
        assert len(rep.records) == 3 and len(draws) == 2 * len(rep.records)
        scored = [c for c, _, _ in calls]
        for search, rescore in zip(draws[::2], draws[1::2]):
            assert 1 <= sum(c is search for c in scored) <= 21
            assert sum(c is rescore for c in scored) == 1


@pytest.mark.parametrize("group", ["h1", "h2"])
@pytest.mark.parametrize("surface", ["tplane", "vplane"])
@pytest.mark.parametrize("spec", ["koranyi", "aniso", "starball:rho=0.5"])
def test_pattern_search_matches_one_row_clamps(request, group, surface, spec, monkeypatch):
    # the normal-line scan is the search pattern, and its offsets s * unit
    # have gauge norm |s| <= 1, so it needs no clamp: clamping each centre's
    # offset into the unit ball one row at a time, as the compass search did,
    # moves it by at most the star-norm bisection's slack and leaves every
    # score on the search cloud as it was
    from carnotperim import parse_gauge, parse_surface
    from carnotperim.federer import SCAN
    from carnotperim.surfaces import ratio_on_cloud

    model = request.getfixturevalue(group)
    if surface == "vplane":
        surface = "vplane:nu=1,1" + ",0" * (model.m1 - 2)
    surf, gauge, t = parse_surface(model, surface), parse_gauge(model, spec), 0.2

    def clamp(w):
        nw = gauge.norm(w)
        return model.dilate(1.0 / nw, w) if nw > 1.0 else w

    calls = scan_scores(monkeypatch)
    federer_density(surf, gauge, sched=DensitySchedule((t,), 5000, 3))
    assert len(calls) == len(SCAN) + 1
    for cloud, y, score in calls[:-1]:
        w = model.dilate(1.0 / t, model.multiply(model.inverse(surf.x), y))
        assert gauge.norm(w) <= 1.0 + 1e-9
        clamped = model.multiply(surf.x, model.dilate(t, clamp(w)))
        assert np.allclose(clamped, y, rtol=0.0, atol=1e-12)
        assert ratio_on_cloud(cloud, gauge, clamped, surf) == score


def test_records_count_the_box_expansions_of_both_clouds(h1, koranyi, monkeypatch):
    # a lower shell makes every box grow once; each record reports both
    # clouds' expansions in its JSON, and the CSV columns stay as they were
    import carnotperim.surfaces as surfaces_module

    monkeypatch.setattr(surfaces_module, "BOX_SHELL", 0.85)
    for surf in (coordinate_plane(h1), vertical_plane(h1, [1.0, 0.0])):
        rep = federer_density(surf, koranyi, sched=small_sched(samples=5000, halvings=1))
        assert [r.as_dict()["expansions"] for r in rep.records] == [2, 2]


def test_rescore_streams_are_disjoint_from_the_search_streams(h1, koranyi, monkeypatch):
    # the rescore must not reuse a random stream of any search cloud, or the
    # selection bias would come back: search clouds draw on (seed, k, attempt,
    # batch) for every box attempt, and no rescore stream has that form
    import carnotperim.federer as federer_module
    import carnotperim.mc as mc_module
    from carnotperim.surfaces import MAX_BOX_ATTEMPTS

    role, streams = [], {"search": set(), "rescore": set()}
    real_patch, real_substream = federer_module.sample_patch, mc_module.substream

    def tagged_patch(*args, **kwargs):
        role.append("rescore" if len(role) % 2 else "search")
        return real_patch(*args, **kwargs)

    def recording_substream(seed, *key):
        streams[role[-1]].add((seed,) + key)
        return real_substream(seed, *key)

    monkeypatch.setattr(federer_module, "sample_patch", tagged_patch)
    monkeypatch.setattr(mc_module, "substream", recording_substream)
    sched = DensitySchedule((0.4, 0.2, 0.1), 5000, 7)
    federer_density(coordinate_plane(h1), koranyi, sched=sched)
    assert streams["search"] and streams["rescore"]
    assert not streams["search"] & streams["rescore"]
    assert all(len(k) == 4 and k[2] < MAX_BOX_ATTEMPTS for k in streams["search"])
    assert not any(len(k) == 4 and k[2] < MAX_BOX_ATTEMPTS for k in streams["rescore"])


COVERAGE_CASES = [
    ("h1", "tplane", "koranyi", KORANYI_PSI0),
    ("h1", "vplane:nu=1,0", "starball:rho=0.5", np.pi / 4.0),
    ("h2", "vplane:nu=1,1,0,0", "starball:rho=0.5", np.pi**2 / 32.0),  # a 4-ball of radius 1/2
]


@pytest.mark.parametrize(
    "group, surface, spec, exact", COVERAGE_CASES,
    # the H^1 cases keep the ids they had before the group was a parameter
    ids=["-".join(map(str, c[1:] if c[0] == "h1" else c)) for c in COVERAGE_CASES],
)
def test_blowup_theta_covers_the_exact_density(request, group, surface, spec, exact):
    # seeded coverage: the debiased estimate sits within 3 se of the exact
    # density on every seed, and its z-scores average out near zero
    from carnotperim import parse_gauge, parse_surface

    model = request.getfixturevalue(group)
    surf, gauge = parse_surface(model, surface), parse_gauge(model, spec)
    zs = []
    for seed in range(12):
        sched = default_schedule(t0=0.1, halvings=2, samples_per_ball=5000, seed=seed)
        theta = federer_density(surf, gauge, sched=sched).extrapolated_theta
        zs.append((theta.value - exact) / theta.stderr)
    assert max(abs(z) for z in zs) <= 3.0, zs
    assert abs(float(np.mean(zs))) <= 1.0, zs


def test_tail_estimates_count_the_tail_samples(h1, koranyi):
    rep = federer_density(vertical_plane(h1, [1.0, 0.0]), koranyi, sched=small_sched(samples=5000))
    tail = sum(r.n_samples for r in rep.records[-3:])
    assert len(rep.records) == 4 and tail == 15000
    assert rep.extrapolated_theta.n_samples == rep.centered_extrapolated.n_samples == tail
