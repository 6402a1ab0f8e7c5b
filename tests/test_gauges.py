import numpy as np
import pytest

from carnotperim import (
    AnisotropicGauge,
    CalibrationError,
    DInfinityGauge,
    GaugeDefinitionError,
    KoranyiGauge,
    StarBodyGauge,
    calibrate_dinfty,
    heisenberg,
    parse_gauge,
    parse_group,
    star_norm,
    validate,
)
import carnotperim.gauges as gauges_module
from carnotperim.gauges import (
    Gauge,
    _dilate_inv,
    _dilation_operands,
    _halve_bracket,
    _star_norm_active,
    _sum_sq,
    convexity_sample,
    sample_in_ball,
)
from carnotperim.mc import substream

from conftest import random_points


def test_koranyi_closed_form(koranyi):
    assert koranyi.norm([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert koranyi.norm([0.0, 0.0, 1.0]) == pytest.approx(2.0)  # (16)^(1/4)
    assert koranyi.norm([0.0, 0.0, 0.0]) == 0.0
    assert koranyi._trace_radius(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-9)


def _near_unit_quartic(model):
    """Points whose |x1|^4 + 16 |x2|^2 covers every double within 64 ulps of 1.

    x1 = (u, 0, ...) with u = 1 - j 2^-53 puts |x1|^4 on 1 - 4 j 2^-53, and
    x2 = sqrt(i / 2) 2^-28 adds about i 2^-53 to it.  Returns the points and
    their quartics, summed as the gauge sums them.
    """
    u, v = np.meshgrid(1.0 - np.arange(21) * 2.0**-53,
                       np.sqrt(np.arange(141) / 2.0) * 2.0**-28, indexing="ij")
    pts = np.zeros((u.size, model.n))
    pts[:, 0] = u.ravel()
    pts[:, model.m1] = v.ravel()
    a = pts[:, 0] * pts[:, 0]
    return pts, a * a + 16.0 * (pts[:, model.m1] * pts[:, model.m1])


@pytest.mark.parametrize("n", [1, 2])
def test_koranyi_unit_ball_compares_the_quartic_bit_for_bit(n):
    model = heisenberg(n)
    near, quartic = _near_unit_quartic(model)
    ulps = np.concatenate([1.0 - np.arange(64, 0, -1) * 2.0**-53, 1.0 + np.arange(65) * 2.0**-52])
    assert np.isin(ulps, quartic).all()
    rng = substream(23, n)
    rand = random_points(model, rng, 20_000, scale=1.2)
    z = random_points(model, rng, 1, scale=0.5)[0]
    # aniso weighs the first layer and keeps x1 = (u, 0, ...) on the quartic
    for gauge in (KoranyiGauge(model), AnisotropicGauge(model, 0.5), AnisotropicGauge(model, 2.0)):
        w = getattr(gauge, "_weights", 1.0)
        for pts in (near, rand):
            a = _sum_sq(model.v1(pts) * w)
            norm = (a * a + 16.0 * _sum_sq(model.v2(pts))) ** 0.25
            assert np.array_equal(gauge.norm_many(pts), norm)
            expected = norm <= 1.0
            assert expected.any() and not expected.all()
            for layout in (np.ascontiguousarray(pts), np.asfortranarray(pts)):
                assert np.array_equal(gauge.in_ball(layout), expected)
        for p in near[np.abs(quartic - 1.0) <= 4 * 2.0**-52]:
            assert gauge.in_ball(p) == (gauge.norm_many(p) <= 1.0)
        # other radii and centres keep the base class's answer
        for pts in (rand, model.multiply(z, near)):
            for radius in (1.0, 0.7):
                for center in (None, z):
                    assert np.array_equal(gauge.in_ball(pts, radius, center),
                                          Gauge.in_ball(gauge, pts, radius, center))


def test_distance_left_invariance_and_scaling(koranyi, h1):
    assert koranyi.distance([0.2, 0.1, -0.3], [0.2, 0.1, -0.3]) == 0.0
    assert koranyi.distance(h1.identity(), [1.0, 0, 0]) == pytest.approx(1.0)
    rng = np.random.default_rng(21)
    p, q, z = (random_points(h1, rng, 1)[0] for _ in range(3))
    assert koranyi.distance(h1.multiply(z, p), h1.multiply(z, q)) == pytest.approx(
        koranyi.distance(p, q), rel=1e-12
    )
    for r in (0.3, 1.7, 4.0):
        assert koranyi.distance(h1.dilate(r, p), h1.dilate(r, q)) == pytest.approx(
            r * koranyi.distance(p, q), rel=1e-12
        )


@pytest.mark.parametrize("name", ["koranyi", "dinf2", "starball", "disc"])
def test_homogeneity_property(name, request):
    gauge = request.getfixturevalue(name)
    model = gauge.model
    rng = np.random.default_rng(22)
    pts = random_points(model, rng, 1000)
    r = rng.uniform(0.25, 4.0, 1000)
    lhs = gauge.norm_many(model.dilate(r, pts))
    rhs = r * gauge.norm_many(pts)
    tol = gauge.norm_tolerance(float(np.max(rhs)) + 1.0)
    assert np.max(np.abs(lhs - rhs)) <= max(tol, 1e-12 * np.max(rhs))


@pytest.mark.parametrize("name", ["koranyi", "dinf2", "disc"])
def test_inversion_symmetry_exact_closed_form(name, request):
    gauge = request.getfixturevalue(name)
    rng = np.random.default_rng(23)
    pts = random_points(gauge.model, rng, 500)
    assert np.array_equal(gauge.norm_many(pts), gauge.norm_many(-pts))


@pytest.mark.parametrize("name", ["koranyi", "dinf2", "starball"])
def test_unit_ball_inversion_symmetry(name, request):
    gauge = request.getfixturevalue(name)
    rng = substream(24, 0)
    pts = sample_in_ball(gauge, 2000, rng)
    assert bool(np.all(gauge.in_ball(-pts)))


def test_dinf_requires_eps1_one_formula(dinf2, h1):
    # max(|x1|, eps2 |x2|^(1/2)) with eps2 = 2
    assert dinf2.norm([0.5, 0.0, 0.0]) == pytest.approx(0.5)
    assert dinf2.norm([0.0, 0.0, 0.25]) == pytest.approx(1.0)
    assert dinf2.norm([0.6, 0.0, 0.04]) == pytest.approx(0.6)
    assert dinf2.block_radii()[1] == pytest.approx(0.25)


def test_star_norm_examples(h1, starball):
    # boundary points of the rho = 0.5 Euclidean ball
    assert starball.norm([0.5, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-8)
    assert starball.norm([0.0, 0.0, 0.5]) == pytest.approx(1.0, abs=1e-8)
    # dilation ray: delta_{1/2}(1,0,0) hits the boundary
    assert starball.norm([1.0, 0.0, 0.0]) == pytest.approx(2.0, abs=1e-8)

    def oracle(pts):
        return np.einsum("...i,...i->...", pts, pts) <= 0.25

    assert star_norm(h1, oracle, np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0, abs=1e-8)


def test_star_norm_bad_oracles(h1):
    def empty(pts):
        return np.zeros(pts.shape[:-1], dtype=bool)

    with pytest.raises(GaugeDefinitionError):
        star_norm(h1, empty, np.array([1.0, 0.0, 0.0]))

    def annulus(pts):  # does not contain the identity: membership flips twice
        r2 = np.einsum("...i,...i->...", pts, pts)
        return (r2 >= 0.25) & (r2 <= 1.0)

    with pytest.raises(GaugeDefinitionError):
        star_norm(h1, annulus, np.array([2.0, 0.0, 0.0]))


def where_star_norm(model, oracle, pts, tol):
    """star_norm's bracket and bisection written with np.where, without its
    spot checks; zero rows have norm 0."""
    out = np.zeros(len(pts))
    active = np.any(pts != 0.0, axis=-1)
    pts = pts[active]

    def inside(r, p):
        return np.asarray(oracle(p * (1.0 / r)[:, None] ** model.dilation_weights), dtype=bool)

    lo, hi = np.full(len(pts), 0.5), np.ones(len(pts))
    grow = ~inside(hi, pts)
    while grow.any():
        hi[grow] *= 2.0
        grow[grow] = ~inside(hi[grow], pts[grow])
    lo = np.minimum(lo, 0.5 * hi)
    shrink = inside(lo, pts)
    while shrink.any():
        lo[shrink] *= 0.5
        shrink[shrink] = inside(lo[shrink], pts[shrink])
    for _ in range(int(np.ceil(np.log2(1.0 / tol))) + 2):
        mid = 0.5 * (lo + hi)
        hit = inside(mid, pts)
        lo = np.where(hit, lo, mid)
        hi = np.where(hit, mid, hi)
    out[active] = 0.5 * (lo + hi)
    return out


@pytest.mark.parametrize("group, spec", [("h1", "starball:rho=0.5"), ("h1", "twoball"),
                                         ("h2", "starball:rho=0.5")])
def test_star_norm_bisection_is_bitwise_unchanged(request, group, spec):
    model = request.getfixturevalue(group)
    gauge = parse_gauge(model, spec)
    pts = random_points(model, np.random.default_rng(5), 3000)
    pts[::97] = 0.0
    got = star_norm(model, gauge.oracle, pts, gauge.tol)
    assert np.array_equal(got, where_star_norm(model, gauge.oracle, pts, gauge.tol))
    assert (got[::97] == 0.0).all() and (got[1:97] > 0.0).all()


@pytest.mark.parametrize("group, spec", [("h1", "starball:rho=0.5"), ("h1", "twoball"),
                                         ("h2", "starball:rho=0.5")])
def test_star_norm_near_certifies_within_the_band(request, group, spec):
    model = request.getfixturevalue(group)
    gauge = parse_gauge(model, spec)
    pts = random_points(model, np.random.default_rng(6), 3000)
    pts[::97] = 0.0
    plain = star_norm(model, gauge.oracle, pts, gauge.tol)
    w = 4.0 * gauge.tol * np.maximum(1.0, plain)
    # within the band: certified rows return near itself
    near = plain + 0.25 * w
    got = star_norm(model, gauge.oracle, pts, gauge.tol, near)
    assert np.array_equal(got[plain > 0], near[plain > 0])
    assert (got[::97] == 0.0).all()
    # off by 10 w, or with near <= w: the plain call's bits
    near = plain + 10.0 * w
    near[1::7] = plain[1::7] - 10.0 * w[1::7]
    near[2::7] = 0.0
    near[3::7] = w[3::7]
    near[4::7] = -1.0
    near[5::7] = np.nan
    got = star_norm(model, gauge.oracle, pts, gauge.tol, near)
    assert np.array_equal(got.view(np.int64), plain.view(np.int64))
    assert np.array_equal(gauge.norm_near(pts, near), got)
    # one point, and near for a zero row
    assert star_norm(model, gauge.oracle, pts[1], gauge.tol, plain[1]) == plain[1]
    assert star_norm(model, gauge.oracle, pts[0], gauge.tol, 1.0) == 0.0


def gathered_star_norm(model, oracle, p, tol, near=None):
    """star_norm as it was before it passed all-nonzero rows through:
    gather the nonzero rows, search them, scatter the norms back."""
    pts = model.conform(np.atleast_2d(np.asarray(p, dtype=float)))
    scalar = np.asarray(p).ndim == 1
    out = np.zeros(pts.shape[0])
    active = np.any(pts != 0.0, axis=-1)
    if np.any(active):
        if near is not None:
            near = np.broadcast_to(np.asarray(near, dtype=float), out.shape)[active]
        out[active] = _star_norm_active(model, oracle, pts[active], tol, near)
    return float(out[0]) if scalar else out


@pytest.mark.parametrize("zero_rows", ["none", "some", "all"])
@pytest.mark.parametrize("group, spec", [("h1", "starball:rho=0.5"), ("h1", "twoball"),
                                         ("h2", "starball:rho=0.5")])
def test_star_norm_equals_the_gathered_search(request, group, spec, zero_rows):
    model = request.getfixturevalue(group)
    gauge = parse_gauge(model, spec)
    pts = random_points(model, np.random.default_rng(8), 2000)
    if zero_rows == "some":
        pts[::89] = 0.0
    elif zero_rows == "all":
        pts[:] = 0.0
    plain = gathered_star_norm(model, gauge.oracle, pts, gauge.tol)
    # within the band, and 10 w above and below it
    offsets = np.resize([0.25, 10.0, -10.0], 2000)
    near = plain + offsets * 4.0 * gauge.tol * np.maximum(1.0, plain)
    for layout in (pts, np.asfortranarray(pts)):
        for nr in (None, near, 1.0):
            want = gathered_star_norm(model, gauge.oracle, pts, gauge.tol, nr)
            got = star_norm(model, gauge.oracle, layout, gauge.tol, nr)
            assert got.dtype == np.float64 and got.shape == (2000,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # one point returns a float, zero or not, with and without near
    for p in (pts[1], np.zeros(model.n)):
        for nr in (None, plain[1], 1.0):
            got = star_norm(model, gauge.oracle, p, gauge.tol, nr)
            assert type(got) is float
            assert got == gathered_star_norm(model, gauge.oracle, p, gauge.tol, nr)


def test_star_norm_searches_all_nonzero_rows_in_place(h1, starball, monkeypatch):
    # with no zero row the search reads the caller's rows, not a gathered copy
    seen = []

    def recording(model, oracle, pts, tol, near=None):
        seen.append(pts)
        return _star_norm_active(model, oracle, pts, tol, near)

    monkeypatch.setattr(gauges_module, "_star_norm_active", recording)
    pts = random_points(h1, np.random.default_rng(9), 500)
    for near in (None, starball.norm_many(pts)):
        seen.clear()
        star_norm(h1, starball.oracle, pts, starball.tol, near)
        assert seen[0] is pts
    pts[3] = 0.0
    seen.clear()
    star_norm(h1, starball.oracle, pts, starball.tol)
    assert len(seen[0]) == 499 and not np.shares_memory(seen[0], pts)


def test_norm_near_keeps_the_monotone_ray_guard(h1):
    def annulus(pts):  # does not contain the identity: outside at 8r
        r2 = pts[..., 0] ** 2 + pts[..., 1] ** 2 + pts[..., 2] ** 2
        return (r2 >= 0.25) & (r2 <= 1.0)

    gauge = StarBodyGauge(h1, annulus, [1.0, 1.0], "annulus", False, True)
    pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(GaugeDefinitionError):
        gauge.norm_many(pts)
    # near = 2 passes the probes at near +- w and fails only at 8 (near + w)
    for near in (2.0, 4.0, 8.0):
        with pytest.raises(GaugeDefinitionError):
            gauge.norm_near(pts, [near, 0.0])


def squared_dilate_inv(model, r, pts):
    """delta_{1/r} by rows: p1 * s and p2 * (s * s), s = 1/r."""
    s = 1.0 / r[:, None]
    return np.concatenate([model.v1(pts) * s, model.v2(pts) * (s * s)], axis=1)


def bisection_radii(rng):
    """Radii a star_norm call dilates by: bisection midpoints, bracket
    doublings and halvings, and (0.5, 1] * 2^e for e in -60..60."""
    lo = 0.5 * 2.0 ** rng.integers(-8, 9, 500)
    hi = 2.0 * lo
    target = lo + (hi - lo) * rng.random(lo.size)
    mids = []
    for _ in range(36):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        lo, hi = np.where(mid < target, mid, lo), np.where(mid < target, hi, mid)
    doublings = 2.0 ** np.arange(0, 90)
    halvings = 0.5 ** np.arange(1, 90)
    mantissas = 1.0 - 0.5 * rng.random((121, 400))  # (0.5, 1]
    mantissas[:, 0] = 1.0
    scaled = np.ldexp(mantissas, np.arange(-60, 61)[:, None]).ravel()
    return np.concatenate(mids + [doublings, halvings, scaled])


@pytest.mark.parametrize("group", ["h1", "h2"])
def test_dilate_inv_scales_the_second_layer_by_the_squared_reciprocal(request, group):
    model = request.getfixturevalue(group)
    rng = np.random.default_rng(11)
    r = bisection_radii(rng)
    pts = random_points(model, rng, len(r))
    pts_t, out = pts.T.copy(), np.empty_like(pts)
    got = _dilate_inv(r, *_dilation_operands(model, pts_t, out))
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), squared_dilate_inv(model, r, pts).view(np.int64))
    # a subset of the rows goes to the front of the same buffers
    rows = rng.random(len(r)) < 0.3
    got = _dilate_inv(r[rows], *_dilation_operands(model, pts_t[:, rows], out))
    assert got.flags.c_contiguous and len(got) == rows.sum()
    want = squared_dilate_inv(model, r[rows], pts[rows])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("group, spec", [
    ("h1", "starball:rho=0.5"), ("h1", "twoball"), ("h2", "starball:rho=0.5"),
    ("h1", "koranyi"), ("h1", "aniso"), ("h1", "dinf:eps2=2"),
    ("h2", "koranyi"), ("h2", "aniso"), ("h2", "dinf:eps2=2"),
])
def test_batched_norms_equal_one_row_norms(request, group, spec):
    # the compass search clamps a +/- pair with one call where it made two
    model = request.getfixturevalue(group)
    gauge = parse_gauge(model, spec)
    pts = random_points(model, np.random.default_rng(4), 120)
    pts[::5] *= 1e-3  # norms below 1/2: the bracket halves
    pts[1::5] *= 40.0  # the bracket doubles several times
    batched = gauge.norm_many(pts)
    pairs = np.concatenate([gauge.norm_many(pts[i : i + 2]) for i in range(0, len(pts), 2)])
    one_row = np.array([gauge.norm(p) for p in pts])
    assert np.array_equal(batched, one_row) and np.array_equal(pairs, one_row)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sum_sq_root_is_bitwise_the_row_norm(m):
    # below 8 entries np.linalg.norm adds a row in index order, in either layout
    rng = np.random.default_rng(m)
    g = rng.standard_normal((20_000, m)) * 10.0 ** rng.uniform(-150.0, 150.0, (20_000, 1))
    g[::7] = 0.0
    g[1::7, 0] = -0.0
    g[2::7, m - 1] = -0.0
    g[3::7] = -0.0
    for layout in (g, np.asfortranarray(g), g @ np.eye(m)):
        want = np.linalg.norm(layout, axis=-1)
        assert np.array_equal(np.sqrt(_sum_sq(layout)).view(np.int64), want.view(np.int64))


def test_halve_bracket_selects_exact_bits():
    bits = np.array([0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                     0x1, 0x800FFFFFFFFFFFFF, 0x7FF8000000000000, 0x7FF0000000000001,
                     0xFFF8DEADBEEF0001, 0x3FF0000000000000, 0xC004000000000000],
                    dtype=np.uint64).view(np.int64)
    lo, hi, mid = (a.ravel() for a in np.meshgrid(bits, bits, bits, indexing="ij"))
    go_hi = np.random.default_rng(3).random(len(lo)) < 0.5
    new_lo, new_hi = lo.view(float).copy(), hi.view(float).copy()
    _halve_bracket(new_lo, new_hi, mid.view(float).copy(), go_hi)
    assert np.array_equal(new_hi.view(np.int64), np.where(go_hi, mid, hi))
    assert np.array_equal(new_lo.view(np.int64), np.where(go_hi, lo, mid))


def test_validate_koranyi_clean(koranyi):
    report = validate(koranyi, samples=100_000, seed=7)
    assert report.passed
    assert report.checks["triangle"]["violations"] == 0
    assert report.checks["inversion_symmetry"]["violations"] == 0
    assert report.checks["homogeneity"]["violations"] == 0


def test_validate_catches_huge_eps2(h1):
    report = validate(DInfinityGauge(h1, eps2=1000.0), samples=20_000, seed=7)
    assert not report.passed
    assert report.checks["triangle"]["violations"] > 0
    assert report.checks["triangle"]["witness"] is not None
    assert report.worst_violation > 0


def test_validate_starball(starball):
    report = validate(starball, samples=20_000, seed=7)
    assert report.checks["triangle"]["violations"] == 0
    assert report.checks["inversion_symmetry"]["violations"] == 0


def test_calibrate_dinfty_grid(h1):
    calib = calibrate_dinfty(h1, [4.0, 2.0, 1.0, 0.5, 0.25], samples=20_000, seed=7)
    assert calib.eps2 == pytest.approx(2.0)
    assert calib.certified == "sample"
    # feasibility is monotone on this grid: everything below the winner passed
    assert calib.passed == [0.25, 0.5, 1.0, 2.0]
    with pytest.raises(CalibrationError):
        calibrate_dinfty(h1, [1000.0], samples=10_000, seed=7)


def test_calibrate_abelian_vacuous(r2):
    calib = calibrate_dinfty(r2, [4.0, 0.5], samples=5_000, seed=7)
    assert calib.eps2 == pytest.approx(4.0)  # no vertical layer: all pass


def test_convexity_sampler(koranyi, twoball, dinf2):
    assert convexity_sample(koranyi, 20_000, seed=7)[0] == 0
    assert convexity_sample(dinf2, 20_000, seed=7)[0] == 0
    nviol, worst, witness = convexity_sample(twoball, 20_000, seed=7)
    assert nviol > 0
    assert worst > 0
    assert witness is not None


def test_parse_gauge_specs(h1, r2):
    assert parse_gauge(h1, "koranyi").kind == "koranyi"
    assert parse_gauge(h1, "dinf:eps2=0.5").eps2 == 0.5
    assert parse_gauge(h1, "starball:rho=0.5").spec_string() == "starball:rho=0.5"
    tb = parse_gauge(h1, "twoball:r1=1,z1=-0.55,r2=0.5,z2=0.45")
    assert not tb.declared_convex and not tb.declared_distance
    assert parse_gauge(r2, "euclidean").kind == "euclidean"
    for spec in ("koranyi", "dinf:eps2=0.5", "aniso:scale=2", "starball:rho=0.5"):
        assert parse_gauge(h1, spec).declared_distance
    assert parse_gauge(h1, "aniso:scale=2").declared_v1_symmetric is False
    with pytest.raises(GaugeDefinitionError):
        parse_gauge(h1, "nosuch")


@pytest.mark.parametrize("spec,named", [
    ("starball:r=0.3", "rho"),
    ("aniso:sacle=3", "scale"),
    ("dinf:eps=2", "eps2"),
    ("koranyi:scale=3", "no options"),
    ("twoball:r1=1,z=0.2", "r1, z1, r2, z2"),
    ("dinf:eps2=1,eps2=2", "twice"),
])
def test_parse_gauge_refuses_unknown_and_repeated_options(h1, spec, named):
    with pytest.raises(GaugeDefinitionError, match=named):
        parse_gauge(h1, spec)


def test_anisotropic_is_even_but_stretched(h1):
    g = AnisotropicGauge(h1, scale=2.0)
    assert g.norm([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert g.norm([0.0, 1.0, 0.0]) == pytest.approx(2.0)
    rng = np.random.default_rng(25)
    pts = random_points(h1, rng, 200)
    assert np.array_equal(g.norm_many(pts), g.norm_many(-pts))


_CATALOG = [
    ("heisenberg:1", spec)
    for spec in ("koranyi", "dinf:eps2=0.5", "aniso:scale=2", "starball:rho=0.5", "twoball")
] + [
    ("heisenberg:2", spec)
    for spec in ("koranyi", "dinf:eps2=0.5", "aniso:scale=2", "starball:rho=0.5")
] + [("abelian:2", "euclidean")] + [
    # from 8 entries np.linalg.norm would add a C-ordered row in another order
    ("heisenberg:4", "dinf:eps2=0.5"), ("abelian:9", "euclidean"),
]


@pytest.mark.parametrize("group,spec", _CATALOG)
def test_membership_does_not_depend_on_layout(group, spec):
    model = parse_group(group)
    gauge = parse_gauge(model, spec)
    rng = np.random.default_rng(31)
    center = random_points(model, rng, 1, scale=0.1)[0]
    for radius in (1.0, 0.37):
        box = gauge.ball_box_halfwidths(1.2 * radius)
        pts = rng.uniform(-1.0, 1.0, size=(3000, model.n)) * box
        f_pts = np.asfortranarray(pts)
        assert f_pts.flags.f_contiguous and not f_pts.flags.c_contiguous
        assert np.array_equal(gauge.norm_many(f_pts), gauge.norm_many(pts))
        for c in (None, center):
            expected = gauge.in_ball(pts, radius, c)
            assert 0 < expected.sum() < len(pts)
            assert np.array_equal(gauge.in_ball(f_pts, radius, c), expected)


def test_star_body_unit_ball_skips_no_membership(h1):
    rng = np.random.default_rng(32)
    for gauge in (parse_gauge(h1, "starball:rho=0.5"), parse_gauge(h1, "twoball")):
        assert isinstance(gauge, StarBodyGauge)
        pts = random_points(h1, rng, 3000, scale=1.2)
        assert np.array_equal(gauge.in_ball(pts, 1.0), gauge.oracle(h1.dilate(1.0, pts)))


CLOSED_FORMS = ("koranyi", "aniso:scale=2", "starball:rho=0.5")


@pytest.mark.parametrize("group", ["heisenberg:1", "heisenberg:2"])
@pytest.mark.parametrize("spec", CLOSED_FORMS + ("dinf:eps2=0.5", "twoball"))
def test_vertical_reach_bounds_the_unit_sphere(group, spec):
    # random rays dilated onto the unit sphere never pass vertical_reach(c),
    # up to the norm's tolerance, which |x_2| + c |x_1|^2 scales by at most
    # its square; a closed form comes within 1e-3 of their maximum, so it is
    # tight.  Each coordinate of a ray is scaled by 10^U(-3, 0), so that
    # rays near a layer's axis, where the sup may lie, are drawn too
    model = parse_group(group)
    gauge = parse_gauge(model, spec)
    rng = np.random.default_rng(47)
    shape = (40_000, model.n)
    rays = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 0.0, shape)
    sphere = model.dilate(1.0 / gauge.norm_many(rays), rays)
    v1 = np.linalg.norm(model.v1(sphere), axis=1)
    v2 = np.linalg.norm(model.v2(sphere), axis=1)
    for c in (0.0, 0.25, 1.0, 1.5, 3.0):  # 1.5 falls between starball:rho=0.5's two branches
        sampled = float(np.max(v2 + c * v1 * v1))
        reach = gauge.vertical_reach(c)
        assert reach * (1.0 + gauge.norm_tolerance()) ** 2 >= sampled
        if spec in CLOSED_FORMS:
            assert reach - sampled <= 1e-3
        else:
            assert reach == gauge.block_radii()[1] + c * gauge.block_radii()[0] ** 2
