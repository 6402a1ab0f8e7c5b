import numpy as np
import pytest
from scipy import integrate

from carnotperim import (
    AnisotropicGauge,
    concavity_report,
    heisenberg,
    slice_area,
    slice_profile,
    support_radius,
)
from carnotperim.gauges import parse_gauge, sample_in_ball
from carnotperim.mc import joint_stderr, substream
from carnotperim.groups import direction, parse_group, vertical_complement
from carnotperim.slices import _slice_points, slice_area_at_center

from conftest import KORANYI_PSI0


# --- independent oracles -------------------------------------------------------


def koranyi_slice_oracle(t):
    """Quadrature for the area of {(s,u): (t^2+s^2)^2 + 16 u^2 <= 1}."""
    if abs(t) >= 1.0:
        return 0.0
    smax = np.sqrt(1.0 - t * t)
    f = lambda s: 0.5 * np.sqrt(max(0.0, 1.0 - (t * t + s * s) ** 2))
    val, _ = integrate.quad(f, -smax, smax, epsabs=1e-12)
    return val


def disc_chord_oracle(t):
    return 2.0 * np.sqrt(max(1.0 - t * t, 0.0))


def twoball_slice_oracle(t, r1=1.0, z1=-0.55, r2=0.5, z2=0.45):
    """Union area of two discs with fixed centers and shrinking radii."""
    R1 = np.sqrt(max(r1 * r1 - t * t, 0.0))
    R2 = np.sqrt(max(r2 * r2 - t * t, 0.0))
    if R1 <= 0 and R2 <= 0:
        return 0.0
    if min(R1, R2) <= 0:
        return np.pi * max(R1, R2) ** 2
    d = abs(z2 - z1)
    if d >= R1 + R2:
        return np.pi * (R1 * R1 + R2 * R2)
    if d <= abs(R1 - R2):
        return np.pi * max(R1, R2) ** 2
    d1 = (d * d - R2 * R2 + R1 * R1) / (2 * d)
    d2 = d - d1
    lens = (
        R1 * R1 * np.arccos(np.clip(d1 / R1, -1, 1))
        - d1 * np.sqrt(max(R1 * R1 - d1 * d1, 0.0))
        + R2 * R2 * np.arccos(np.clip(d2 / R2, -1, 1))
        - d2 * np.sqrt(max(R2 * R2 - d2 * d2, 0.0))
    )
    return np.pi * (R1 * R1 + R2 * R2) - lens


def test_frozen_constant_matches_oracle():
    val, err = integrate.quad(lambda s: np.sqrt(1.0 - s**4), 0.0, 1.0, epsabs=1e-14)
    assert val == pytest.approx(KORANYI_PSI0, abs=1e-12)
    assert koranyi_slice_oracle(0.0) == pytest.approx(KORANYI_PSI0, abs=1e-10)


# --- slice_area ------------------------------------------------------------------


def test_koranyi_central_slice(koranyi):
    est = slice_area(koranyi, [1.0, 0.0], 0.0, n_samples=200_000, seed=7)
    assert est.stderr > 0
    assert abs(est.value - KORANYI_PSI0) <= 3.0 * est.stderr


def test_koranyi_offset_slices_match_quadrature(koranyi):
    for i, t in enumerate((0.25, 0.5, 0.75)):
        est = slice_area(koranyi, [1.0, 0.0], t, n_samples=200_000, seed=7, key=(i,))
        assert abs(est.value - koranyi_slice_oracle(t)) <= 3.0 * est.stderr


def test_slice_beyond_projection_radius_is_zero(koranyi, dinf2):
    for g in (koranyi, dinf2):
        est = slice_area(g, [1.0, 0.0], 1.5, n_samples=1_000, seed=7)
        assert est.value == 0.0 and est.stderr == 0.0


def test_slice_evenness(koranyi, twoball):
    for g, t in ((koranyi, 0.5), (twoball, 0.52)):
        plus = slice_area(g, [1.0, 0.0], t, n_samples=100_000, seed=7, key=(0,))
        minus = slice_area(g, [1.0, 0.0], -t, n_samples=100_000, seed=7, key=(1,))
        assert abs(plus.value - minus.value) <= 3.0 * (plus.stderr + minus.stderr)


def test_slice_direction_independence_koranyi(koranyi):
    # horizontally symmetric gauge: psi does not depend on the direction
    a = slice_area(koranyi, [1.0, 0.0], 0.4, n_samples=100_000, seed=7, key=(0,))
    b = slice_area(koranyi, [0.6, 0.8], 0.4, n_samples=100_000, seed=7, key=(1,))
    assert abs(a.value - b.value) <= 3.0 * joint_stderr(a, b)


def test_abelian_chord(disc):
    for i, t in enumerate((0.0, 0.3, 0.8)):
        est = slice_area(disc, [1.0, 0.0], t, n_samples=100_000, seed=7, key=(i,))
        assert abs(est.value - disc_chord_oracle(t)) <= 3.0 * max(est.stderr, 1e-12)


def test_translation_reduction(koranyi, h1):
    # area of B(z,1) ∩ N(nu) equals psi(-<z1, nu>): unit-Jacobian translation
    nu = np.array([1.0, 0.0])
    rng = substream(77, 5)
    zs = sample_in_ball(koranyi, 4, rng)
    for i, z in enumerate(zs):
        direct = slice_area_at_center(koranyi, nu, z, n_samples=150_000, seed=7, key=(i, 0))
        t = -float(z[0])
        viaprofile = slice_area(koranyi, nu, t, n_samples=150_000, seed=7, key=(i, 1))
        assert abs(direct.value - viaprofile.value) <= 3.0 * joint_stderr(direct, viaprofile)
    # a negative sample count is refused instead of drawing a wrapped-around batch
    with pytest.raises(ValueError, match="n_samples"):
        slice_area_at_center(koranyi, nu, zs[0], n_samples=-5, seed=7)


def test_mc_stderr_scaling(koranyi):
    small = slice_area(koranyi, [1.0, 0.0], 0.2, n_samples=50_000, seed=7, key=(0,))
    big = slice_area(koranyi, [1.0, 0.0], 0.2, n_samples=200_000, seed=7, key=(1,))
    # quadrupling the sample count halves the standard error within 20%
    assert big.stderr == pytest.approx(0.5 * small.stderr, rel=0.2)


def test_slice_area_determinism(koranyi):
    a = slice_area(koranyi, [1.0, 0.0], 0.3, n_samples=50_000, seed=123)
    b = slice_area(koranyi, [1.0, 0.0], 0.3, n_samples=50_000, seed=123)
    assert a == b
    c = slice_area(koranyi, [1.0, 0.0], 0.3, n_samples=50_000, seed=124)
    assert c.value != a.value


# --- support and profiles -----------------------------------------------------------


def test_support_radius(koranyi, dinf2, twoball, disc):
    assert support_radius(koranyi, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-6)
    assert support_radius(dinf2, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-6)
    assert support_radius(disc, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-6)
    # the two-ball body reaches |t| = max radius through off-axis points
    assert support_radius(twoball, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("n", [1, 2])
def test_twoball_support_radius_is_exact(n):
    # the larger ball (radius 1, centre height -0.55) reaches |t| = 1 only at
    # that height, which the random vertical probes miss: the compass
    # refinement must move the vertical coordinate as well
    gauge = parse_gauge(heisenberg(n), "twoball")
    for nu in (np.eye(2 * n)[0], np.ones(2 * n) / np.sqrt(2 * n)):
        assert abs(support_radius(gauge, nu) - 1.0) <= 1e-6


def test_support_radius_off_axis(h1):
    # the stretched gauge's widest slice along (1,1)/sqrt2 lies off the nu-axis:
    # sup <x1, nu> over |W x1| <= 1 is |W^-1 nu| = 1/sqrt(1.6) with W = diag(1, 2);
    # the first bisection lands within 8e-7 of it, so the refined probe must
    # be tried one norm tolerance past it, not a relative 1e-6
    aniso = AnisotropicGauge(h1, scale=2.0)
    for nu in ([1.0, 1.0], [1.0, 2.0], [0.3, -1.0]):
        nu = np.array(nu) / np.linalg.norm(nu)
        T, exact = support_radius(aniso, nu), np.linalg.norm(nu / [1.0, 2.0])
        assert abs(T - exact) <= 1e-9 * exact
    assert slice_area(aniso, nu, 1.01 * T, 20_000, seed=7).value == 0.0


def test_support_radius_off_axis_h2():
    # nu-perp is 3-dimensional here, too thin for a random probe cloud alone:
    # the compass refinement must reach |W^-1 nu| with W = diag(1, 2, 1, 2)
    aniso = AnisotropicGauge(heisenberg(2), scale=2.0)
    for nu in ([1.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]):
        nu = np.array(nu) / np.linalg.norm(nu)
        T, exact = support_radius(aniso, nu), np.linalg.norm(nu / [1.0, 2.0, 1.0, 2.0])
        assert abs(T - exact) <= 1e-9 * exact
    assert slice_area(aniso, nu, 1.01 * T, 20_000, seed=7).value == 0.0


def test_profile_shape_and_grid(koranyi):
    profile = slice_profile(koranyi, [1.0, 0.0], grid_size=9, n_samples=20_000, seed=7)
    assert len(profile.grid) == 9 == len(profile.areas)
    assert profile.grid[4] == 0.0
    assert profile.support == pytest.approx(1.0, abs=1e-6)
    vals = profile.values()
    assert vals[0] <= 3.0 * profile.areas[0].stderr + 1e-12  # vanishes at the edge
    assert np.argmax(vals) == 4
    with pytest.raises(ValueError):
        slice_profile(koranyi, [1.0, 0.0], grid_size=8)


def test_profile_values_nonnegative_and_zero_outside(twoball):
    profile = slice_profile(twoball, [1.0, 0.0], grid_size=11, n_samples=20_000, seed=7)
    assert np.all(profile.values() >= 0.0)
    out = slice_area(twoball, [1.0, 0.0], profile.support * 1.5, n_samples=1_000, seed=7)
    assert out.value == 0.0


# --- concavity audit -----------------------------------------------------------------


def test_koranyi_profile_concave(koranyi):
    profile = slice_profile(koranyi, [1.0, 0.0], grid_size=21, n_samples=50_000, seed=7)
    rep = concavity_report(profile)
    assert rep.exponent == pytest.approx(0.5)
    assert rep.count == 0


def test_disc_profile_concave(disc):
    profile = slice_profile(disc, [1.0, 0.0], grid_size=21, n_samples=50_000, seed=7)
    rep = concavity_report(profile)  # exponent 1/(n-1) = 1
    assert rep.exponent == pytest.approx(1.0)
    assert rep.count == 0


def test_twoball_profile_flags_violation(twoball):
    profile = slice_profile(twoball, [1.0, 0.0], grid_size=41, n_samples=100_000, seed=7)
    rep = concavity_report(profile)
    assert rep.count >= 1
    assert rep.worst_margin > 0
    # the kink sits where the smaller ball's slices vanish while disjoint
    assert any(abs(abs(t) - 0.5) < 0.08 for t, _ in rep.violations)


def test_twoball_profile_matches_disc_union_oracle(twoball):
    for i, t in enumerate((0.0, 0.3, 0.45, 0.5, 0.55, 0.9)):
        est = slice_area(twoball, [1.0, 0.0], t, n_samples=150_000, seed=7, key=(i,))
        assert abs(est.value - twoball_slice_oracle(t)) <= 3.0 * max(est.stderr, 1e-12)


# --- the slice embedding ------------------------------------------------------------


def _matmul_slice_points(model, nu, perp, t, coords):
    """_slice_points with the matmul on every first layer."""
    cols = coords.T
    pts = np.empty((model.n, coords.shape[0]))
    h = pts[: model.m1]
    np.matmul(perp.T, cols[: model.m1 - 1], out=h)
    h += (t * nu)[:, None]
    pts[model.m1 :] = cols[model.m1 - 1 :]
    return pts.T


@pytest.mark.parametrize("nu", [[1.0, 0.0], [0.0, -1.0], [0.6, -0.8], [-1.0, 3.0]])
@pytest.mark.parametrize("t", [0.0, 0.3, -0.3, -0.0])
def test_h1_slice_points_keep_the_matmul_bits(koranyi, nu, t):
    model = koranyi.model
    nu = direction(model, nu)
    perp = vertical_complement(model, nu)
    coords = np.asfortranarray(substream(3).uniform(-1.0, 1.0, (8192, 2)))
    coords[:3] = [[-0.0, 0.5], [0.0, -0.0], [-0.0, -0.0]]
    got = _slice_points(koranyi, nu, perp, t, coords)
    ref = _matmul_slice_points(model, nu, perp, t, coords)
    assert got.flags.f_contiguous
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def index_order_first_layer(frame, coords, offset):
    """offset + 0.0 plus each frame row's product, added one at a time."""
    h = np.broadcast_to((offset + 0.0)[:, None], (len(offset), len(coords))).copy()
    for j in range(len(frame)):
        h = h + frame[j][:, None] * coords[:, j]
    return h.T


@pytest.mark.parametrize("group, nu", [
    ("h2", [0.3, -1.0, 0.5, 0.2]), ("h2", [1.0, 1.0, 0.0, 0.0]), ("h2", [0.0, 0.0, -1.0, 0.0]),
    ("h1", [0.6, -0.8]),
])
@pytest.mark.parametrize("t", [0.0, 0.3, -0.3, -0.0])
def test_slice_points_are_the_index_order_sum_in_both_layouts(request, group, nu, t):
    model = request.getfixturevalue(group)
    gauge = parse_gauge(model, "koranyi")
    nu = direction(model, nu)
    perp = vertical_complement(model, nu)
    coords = substream(4).uniform(-1.0, 1.0, (5000, model.n - 1))
    coords[:3, : model.m1 - 1] = -0.0  # signed zero products
    coords[1, 0] = 0.0
    want = index_order_first_layer(perp, coords, t * nu)
    for layout in (np.ascontiguousarray(coords), np.asfortranarray(coords)):
        got = _slice_points(gauge, nu, perp, t, layout)
        assert got.flags.f_contiguous
        assert np.array_equal(got[:, : model.m1].view(np.int64), want.view(np.int64))
        assert np.array_equal(got[:, model.m1 :], coords[:, model.m1 - 1 :])


def test_slice_points_on_a_one_dimensional_first_layer():
    # R^1 has no nu-perp: every slice point is t nu
    model = parse_group("abelian:1")
    gauge = parse_gauge(model, "euclidean")
    nu = direction(model, [-1.0])
    got = _slice_points(gauge, nu, vertical_complement(model, nu), 0.25, np.empty((7, 0)))
    assert np.array_equal(got, np.full((7, 1), -0.25))
