import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from carnotperim import (
    BracketError,
    RegionError,
    RegularityError,
    coordinate_plane,
    from_expression,
    graph_height,
    horizontal_normal,
    make_surface,
    parse_gauge,
    parse_surface,
    perimeter_ball,
    slice_area,
    vertical_plane,
)
from carnotperim.groups import embed_v1, heisenberg, plane_points
from carnotperim.mc import joint_stderr
from carnotperim.mc import box_batches
from carnotperim.surfaces import (
    BISECT_ITERS,
    BOX_GROWTH,
    BOX_SLACK,
    BRACKET_DOUBLINGS,
    BRACKET_FACTOR,
    CERT_ITERS,
    FAIL_FRACTION,
    HEIGHT_BLOCK,
    MAX_BOX_ATTEMPTS,
    SCORE_SLACK,
    _draw_cloud,
    _graph_heights,
    _reach_bounds,
    _take_rows,
    quadratic_graph,
    ratio_on_cloud,
    sample_patch,
)


def embed_chart(spec, coords):
    """Chart coordinates as points of the surface's parameter plane N."""
    return plane_points(spec.model, spec.frame_perp, coords, np.zeros(spec.model.m1))


def fd_oracle(model, f, p, h=1e-6):
    """Independent one-point central difference along group lines."""
    out = []
    for j in range(model.m1):
        e = np.zeros(model.m1)
        e[j] = 1.0
        ej = embed_v1(model, e)
        out.append(
            (f(model.multiply(p, h * ej)[None])[0] - f(model.multiply(p, -h * ej)[None])[0])
            / (2 * h)
        )
    return np.array(out)


# --- normals ---------------------------------------------------------------------


def test_vertical_plane_normal_constant(h1):
    plane = vertical_plane(h1, [1.0, 0.0])
    for p in ([0.0, 0.0, 0.0], [0.0, 2.0, -1.0]):
        assert_allclose(horizontal_normal(plane, p), [1.0, 0.0], atol=1e-12)


def test_tplane_normals_match_fd_oracle(h1):
    surf = coordinate_plane(h1)
    # analytic horizontal gradient of the vertical coordinate at (1,0,0): (0, 1/2)
    assert_allclose(horizontal_normal(surf, [1.0, 0.0, 0.0]), [0.0, 1.0], atol=1e-9)
    nv = horizontal_normal(surf, [0.0, 1.0, 0.0])
    assert_allclose(np.abs(nv), [1.0, 0.0], atol=1e-9)  # sign-free comparison
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = np.array([rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5), 0.0])
        g_pkg = surf.grad_many(p[None])[0]
        g_ora = fd_oracle(h1, surf.f_many, p)
        assert_allclose(g_pkg, g_ora, atol=1e-8)


def test_normal_regularity_error(h1):
    surf = coordinate_plane(h1)
    with pytest.raises(RegularityError):
        horizontal_normal(surf, [0.0, 0.0, 0.0])  # characteristic point


def test_expression_surface_uses_fd(h1):
    surf = from_expression(h1, "x3", np.array([1.0, 0.0, 0.0]))
    assert_allclose(horizontal_normal(surf, [1.0, 0.0, 0.0]), [0.0, 1.0], atol=1e-6)
    g = surf.grad_many(np.array([[1.0, 0.2, 0.0]]))[0]
    ana = coordinate_plane(h1).grad_many(np.array([[1.0, 0.2, 0.0]]))[0]
    assert_allclose(g, ana, atol=1e-8)


def test_make_surface_rejects_off_surface_base(h1):
    f = lambda pts: pts[..., 2]
    with pytest.raises(RegularityError):
        make_surface(h1, f, np.array([1.0, 0.0, 0.5]))  # f(x) != 0
    with pytest.raises(RegularityError):
        coordinate_plane(h1, x=np.array([0.0, 0.0, 0.0]))  # gradient vanishes


# --- graph heights ----------------------------------------------------------------


def scan_height_oracle(surf, n_point, bracket, steps=400_001):
    """Dense 1-D scan for the sign change of s -> f(x * n * (s e1))."""
    model = surf.model
    base = model.multiply(surf.x, n_point)
    s = np.linspace(-bracket, bracket, steps)
    e1 = embed_v1(model, surf.nu0)
    vals = surf.f_many(model.multiply(base[None], s[:, None] * e1[None]))
    sgn = np.sign(vals)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    exact = np.nonzero(sgn == 0)[0]
    if len(exact):
        return float(s[exact[0]])
    assert len(flips) >= 1
    i = flips[0]
    # linear interpolation inside the bracketing cell
    return float(s[i] - vals[i] * (s[i + 1] - s[i]) / (vals[i + 1] - vals[i]))


def test_graph_height_plane_is_zero(h1):
    plane = vertical_plane(h1, [1.0, 0.0])
    assert graph_height(plane, np.array([0.0, 0.7, -0.3]), 1.0) == pytest.approx(0.0, abs=1e-12)
    assert graph_height(plane, h1.identity(), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_graph_height_tplane_matches_scan(h1):
    surf = coordinate_plane(h1)
    for tau, sig in ((0.2, 0.05), (-0.3, -0.08), (0.0, 0.1)):
        n_point = np.array([tau, 0.0, sig])
        phi = graph_height(surf, n_point, 1.0)
        ora = scan_height_oracle(surf, n_point, 1.0)
        assert phi == pytest.approx(ora, abs=1e-5)
        # hand solution: the height solves sig + phi (1 + tau) / 2 = 0
        assert phi == pytest.approx(-2.0 * sig / (1.0 + tau), abs=1e-10)


def test_graph_height_identity_is_zero_everywhere(h1):
    for surf in (vertical_plane(h1, [0.6, 0.8]), coordinate_plane(h1)):
        assert graph_height(surf, surf.model.identity(), 0.5) == pytest.approx(0.0, abs=1e-10)


def test_graph_height_root_at_bracket_end(h1):
    # the height -2 sig / (1 + tau) = +-0.5 sits exactly on an end of [-0.5, 0.5]
    surf = coordinate_plane(h1)
    assert graph_height(surf, np.array([0.0, 0.0, -0.25]), 0.5) == pytest.approx(0.5, abs=1e-12)
    assert graph_height(surf, np.array([0.0, 0.0, 0.25]), 0.5) == pytest.approx(-0.5, abs=1e-12)


def test_graph_height_on_a_line_inside_the_surface(h1):
    # x * n = 0, so f vanishes on the whole line and both bracket ends are
    # roots: the regula falsi point is 0/0, never certified, and the row
    # falls back to the bisection, which keeps the lower half every step
    surf = coordinate_plane(h1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert graph_height(surf, np.array([-1.0, 0.0, 0.0]), 0.5) == -0.5


def doubled_brackets(g, k, half_width, doublings):
    """The bracket half-widths S after the doublings and g's values at -S and S."""
    S = np.full(k, half_width)
    glo, ghi = g(-S), g(S)
    no_flip = glo * ghi > 0.0
    for _ in range(doublings):
        if not no_flip.any():
            break
        S[no_flip] *= 2.0
        glo = np.where(no_flip, g(-S), glo)
        ghi = np.where(no_flip, g(S), ghi)
        no_flip = glo * ghi > 0.0
    return S, glo, ghi


def bisection_heights(g, S, glo, ghi):
    """BISECT_ITERS masked-copy bisection steps for g's sign change on [-S, S]."""
    pos_hi = (ghi > 0.0) | (glo < 0.0)
    lo, hi, mid = -S, S.copy(), np.empty(len(S))
    for _ in range(BISECT_ITERS):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        go_hi = (g(mid) > 0.0) == pos_hi
        np.copyto(hi, mid, where=go_hi)
        np.copyto(lo, mid, where=~go_hi)
    return 0.5 * (lo + hi)


def certified_heights(g, S, glo, ghi):
    """Certified Illinois regula falsi with masked-copy selects, then the
    bisection where it did not certify; returns the heights and that mask."""
    bracketed = ~(glo * ghi > 0.0)
    sign = np.where((ghi > 0.0) | (glo < 0.0), 1.0, -1.0)
    lo, hi, d = -S, S.copy(), 2.0**-40 * S
    flo = np.where(bracketed, sign * glo, -1.0)
    fhi = np.where(bracketed, sign * ghi, 1.0)
    pending, last = bracketed.copy(), np.zeros(len(S))
    for _ in range(CERT_ITERS):
        s = lo + (hi - lo) * (flo / (flo - fhi))
        gm, gp = sign * g(s - d), sign * g(s + d)
        pending &= ~((gm <= 0.0) & (gp >= 0.0))
        down = pending & (gm > 0.0)
        up = pending & (gp < 0.0) & ~down
        np.copyto(lo, s + d, where=up)
        np.copyto(flo, gp, where=up)
        np.copyto(hi, s - d, where=down)
        np.copyto(fhi, gm, where=down)
        np.copyto(fhi, 0.5 * fhi, where=up & (last > 0))
        np.copyto(flo, 0.5 * flo, where=down & (last < 0))
        last = up * 1.0 - down * 1.0
    np.copyto(s, bisection_heights(g, S, glo, ghi), where=pending)
    return s, pending


def multiply_line_heights(spec, base, half_width):
    """_graph_heights without doublings, f evaluated at base * (s e1) by the group law."""
    model = spec.model
    e1 = embed_v1(model, spec.nu0)

    def g(s):
        return spec.f_many(model.multiply(base, s[:, None] * e1))

    S, glo, ghi = doubled_brackets(g, len(base), half_width, 0)
    return certified_heights(g, S, glo, ghi)[0], ~(glo * ghi > 0.0)


@pytest.mark.parametrize("surface", ["tplane", "vplane:nu=1,0"])
def test_graph_heights_on_affine_line_are_bitwise(h1, surface):
    spec = parse_surface(h1, surface)
    coords = np.random.default_rng(33).uniform(-0.5, 0.5, size=(4000, h1.n - 1))
    base = h1.multiply(spec.x, embed_chart(spec, coords))
    phi, bracketed = _graph_heights(spec, base, 0.4, doublings=0)
    ref_phi, ref_bracketed = multiply_line_heights(spec, base, 0.4)
    assert 0 < bracketed.sum() <= len(base)
    assert np.array_equal(bracketed, ref_bracketed)
    assert np.array_equal(phi, ref_phi)


def row_major_line(spec, base):
    """s -> f(base * (s e1)) on the affine line, kept row-major."""
    model = spec.model
    slope = np.empty_like(base)
    slope[:, : model.m1] = spec.nu0
    slope[:, model.m1 :] = 0.5 * model.bracket_v1(model.v1(base), spec.nu0)

    def g(s):
        pts = s[:, None] * slope
        pts += base
        return np.ascontiguousarray(spec.f_many(pts))

    return g


def masked_copy_heights(spec, base, half_width, doublings=BRACKET_DOUBLINGS):
    """_graph_heights as a row-major line with masked-copy selects."""
    g = row_major_line(spec, base)
    S, glo, ghi = doubled_brackets(g, len(base), half_width, doublings)
    return certified_heights(g, S, glo, ghi)[0], ~(glo * ghi > 0.0)


HEIGHT_SURFACES = {
    "tplane": lambda m: parse_surface(m, "tplane"),
    "vplane:nu=1,0": lambda m: parse_surface(m, "vplane:nu=" + ",".join("1" + "0" * (m.m1 - 1))),
    "vplane:nu=1,1": lambda m: parse_surface(m, "vplane:nu=1,1" + ",0" * (m.m1 - 2)),
    "qgraph": lambda m: quadratic_graph(m, lin=(0.3, 1.0) + (0.0,) * (m.m1 - 2)),
    # f returns a read-only broadcast, and small brackets need doublings
    "expr": lambda m: from_expression(m, "x%d-0.2*x2^2" % m.n, [1.0] + [0.0] * (m.n - 1)),
    # curved the other way, so regula falsi keeps the other end of the bracket
    "expr+": lambda m: from_expression(m, "x%d+0.2*x2^2" % m.n, [1.0] + [0.0] * (m.n - 1)),
}


def height_bases(model, spec, k):
    coords = np.random.default_rng(k).uniform(-0.5, 0.5, size=(k, model.n - 1))
    return model.multiply(spec.x, embed_chart(spec, coords))


@pytest.mark.parametrize("k", [1, 4097, 65536])
@pytest.mark.parametrize("surface", sorted(HEIGHT_SURFACES))
@pytest.mark.parametrize("group", ["h1", "h2"])
def test_graph_heights_match_masked_copy_bisection(request, group, surface, k):
    model = request.getfixturevalue(group)
    spec = HEIGHT_SURFACES[surface](model)
    base = height_bases(model, spec, k)
    phi, bracketed = _graph_heights(spec, base, 0.02)
    ref_phi, ref_bracketed = masked_copy_heights(spec, np.ascontiguousarray(base), 0.02)
    assert np.array_equal(bracketed, ref_bracketed)
    assert np.array_equal(phi, ref_phi)


@pytest.mark.parametrize("k", [1, 4097, 65536])
@pytest.mark.parametrize("surface", sorted(HEIGHT_SURFACES))
@pytest.mark.parametrize("group", ["h1", "h2"])
def test_graph_heights_are_certified(request, group, surface, k):
    model = request.getfixturevalue(group)
    spec = HEIGHT_SURFACES[surface](model)
    base = height_bases(model, spec, k)
    phi, bracketed = _graph_heights(spec, base, 0.02)
    g = row_major_line(spec, np.ascontiguousarray(base))
    S, glo, ghi = doubled_brackets(g, k, 0.02, BRACKET_DOUBLINGS)
    assert np.array_equal(bracketed, ~(glo * ghi > 0.0))
    d = 2.0**-40 * S
    flips = np.sign(g(phi - d)) * np.sign(g(phi + d)) <= 0.0
    assert flips[bracketed].all()
    off = np.abs(phi - bisection_heights(g, S, glo, ghi))
    assert np.all(off[bracketed] <= 2.0**-39 * S[bracketed])


def test_uncertified_heights_fall_back_to_bisection(h1):
    # f is a step across a width of about 1e-12: few rows certify in CERT_ITERS rounds
    spec = parse_surface(h1, "tplane")
    step = replace(spec, f=lambda pts: np.tanh(1e12 * pts[..., h1.m1]))
    base = height_bases(h1, step, 4097)
    phi, bracketed = _graph_heights(step, base, 0.02)
    g = row_major_line(step, np.ascontiguousarray(base))
    S, glo, ghi = doubled_brackets(g, len(base), 0.02, BRACKET_DOUBLINGS)
    ref_phi, pending = certified_heights(g, S, glo, ghi)
    assert pending.sum() > bracketed.sum() // 2
    assert np.array_equal(phi[pending], bisection_heights(g, S, glo, ghi)[pending])
    assert np.array_equal(phi, ref_phi)


@pytest.mark.parametrize("k", [1, 65536])
@pytest.mark.parametrize("surface", sorted(HEIGHT_SURFACES))
@pytest.mark.parametrize("group", ["h1", "h2"])
def test_graph_heights_evaluation_count(request, group, surface, k):
    model = request.getfixturevalue(group)
    spec = HEIGHT_SURFACES[surface](model)
    calls = []

    def f(pts):
        calls.append(len(pts))
        return spec.f(pts)

    _graph_heights(replace(spec, f=f), height_bases(model, spec, k), 0.4, doublings=0)
    # each call solves its rows as one block: the two bracket ends, then two
    # probes a round
    per_block = 4 if "plane" in surface else 2 + 2 * CERT_ITERS + BISECT_ITERS
    assert 0 < len(calls) <= per_block


def test_plane_fields_round_alike_in_both_layouts(h2):
    # BLAS and einsum round a column-major block differently on H^2
    nu = np.array([0.3, -1.0, 0.7, 0.2])
    plane = vertical_plane(h2, nu, x=[0.1, 0.2, -0.3, 0.4, 0.5])
    quad = np.random.default_rng(2).uniform(-0.5, 0.5, (4, 4))
    graph = quadratic_graph(h2, lin=(0.3, 1.0, -0.2, 0.5), quad=quad)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (5000, h2.n))
    unit = nu / np.linalg.norm(nu)
    row_major = h2.v1(pts) @ unit - float(h2.v1(plane.x) @ unit)
    assert np.array_equal(plane.f(np.asfortranarray(pts)), row_major)
    assert np.array_equal(graph.f(np.asfortranarray(pts)), graph.f(pts))


def test_blowup_kernels_see_column_major_layouts(h1):
    # f sees each block of at most HEIGHT_BLOCK rows of a batch, column-major
    spec = parse_surface(h1, "tplane")
    gauge = parse_gauge(h1, "starball:rho=0.5")
    for n, blocks in ((5000, {5000}), (20_000, {6666, 6667})):
        layouts, grad_layouts, reach_layouts = [], [], []

        def f(pts):
            layouts.append((pts.shape, pts.flags.f_contiguous))
            return spec.f(pts)

        def grad_h(pts):
            grad_layouts.append((pts.shape, pts.flags.f_contiguous))
            return spec.grad_h(pts)

        def in_ball(pts, radius=1.0, center=None):
            reach_layouts.append((pts.shape, pts.flags.f_contiguous))
            return type(gauge).in_ball(gauge, pts, radius, center)

        gauge.in_ball = in_ball
        cloud = sample_patch(replace(spec, f=f, grad_h=grad_h), gauge, 0.2, n, seed=7)
        assert max(blocks) <= HEIGHT_BLOCK
        assert layouts and set(layouts) == {((k, h1.n), True) for k in blocks}
        # a view of the draw's buffer: each column is contiguous
        assert cloud.sorted_points.strides[0] == cloud.sorted_points.itemsize
        assert not cloud.sorted_points.flags.c_contiguous
        # the points on the graph keep the blocks' layout: the gradient and
        # the reach test read them column by column too
        assert set(grad_layouts) == set(reach_layouts) == {((k, h1.n), True) for k in blocks}


def test_take_rows_is_the_row_gather():
    pts = np.asfortranarray(np.random.default_rng(42).standard_normal((3000, 5)))
    rng = np.random.default_rng(43)
    for rows in (np.flatnonzero(rng.random(3000) < 0.3), rng.permutation(3000),
                 np.arange(0), np.array([2999, 0, 0, 7])):
        got = _take_rows(pts, rows)
        assert got.flags.f_contiguous and got.shape == (len(rows), 5)
        assert np.array_equal(got.view(np.int64), pts[rows].view(np.int64))


def test_density_adds_the_gradient_squares_in_index_order_on_h4(monkeypatch):
    # from 8 entries np.linalg.norm adds a C-ordered row in another order;
    # |grad_H f| adds the squares in index order in every layout.  The
    # draw's densities are those of its kept rows, the ok rows within reach;
    # a wide reach keeps nearly every ok row
    import carnotperim.surfaces as surfaces_module

    model = heisenberg(4)
    spec = parse_surface(model, "tplane")
    gauge = parse_gauge(model, "koranyi")
    grads, found, near = [], [], []
    real_heights = surfaces_module._graph_heights

    def grad_h(pts):
        grads.append(spec.grad_h(pts))
        return grads[-1]

    def heights(*args):
        phi, bracketed = real_heights(*args)
        found.append(bracketed)
        return phi, bracketed

    def in_ball(pts, radius=1.0, center=None):
        near.append(type(gauge).in_ball(gauge, pts, radius, center))
        return near[-1]

    monkeypatch.setattr(surfaces_module, "_graph_heights", heights)
    gauge.in_ball = in_ball
    bounds = _reach_bounds(spec, gauge, 0.2)
    hw = BOX_SLACK * bounds
    alpha = _draw_cloud(replace(spec, grad_h=grad_h), gauge, 0.1, 20_000, hw, bounds, 1.0, 7, ())[1]
    g = np.concatenate(grads)
    assert g.shape == (20_000, 8) and g.flags.c_contiguous
    index_order = np.zeros(len(g))
    for j in range(8):
        index_order += g[:, j] * g[:, j]
    x1f = g @ spec.nu0
    kept = np.concatenate(found) & (x1f > 1e-9 * np.maximum(np.sqrt(index_order), 1.0))
    kept &= np.concatenate(near)
    assert kept.mean() > 0.9
    assert np.array_equal(alpha, (np.sqrt(index_order) / x1f)[kept])


def test_graph_height_bracket_error(h1):
    surf = coordinate_plane(h1)
    with pytest.raises(BracketError):
        graph_height(surf, np.array([0.0, 0.0, 5.0]), 0.1)  # root far outside bracket


# --- perimeter of balls -------------------------------------------------------------


def test_halfspace_identity(koranyi, h1):
    plane = vertical_plane(h1, [1.0, 0.0])
    per = perimeter_ball(plane, koranyi, h1.identity(), 1.0, n_samples=200_000, seed=7)
    psi0 = slice_area(koranyi, [1.0, 0.0], 0.0, n_samples=200_000, seed=11)
    assert abs(per.value.value - psi0.value) <= 3.0 * joint_stderr(per.value, psi0)


def test_halfspace_scaling_q_minus_one(koranyi, h1):
    plane = vertical_plane(h1, [1.0, 0.0])
    ratios = []
    for i, t in enumerate((1.0, 0.5, 0.25)):
        per = perimeter_ball(plane, koranyi, h1.identity(), t, n_samples=200_000, seed=7, key=(i,))
        ratios.append((per.value.value / t**3, per.value.stderr / t**3))
    for i in range(len(ratios)):
        for j in range(i + 1, len(ratios)):
            dev = abs(ratios[i][0] - ratios[j][0])
            assert dev <= 3.0 * np.hypot(ratios[i][1], ratios[j][1])


def test_integrand_is_one_at_base_point(h1, koranyi):
    # frame alignment kills the tangential derivatives at the base point
    for surf in (vertical_plane(h1, [0.8, -0.6]), coordinate_plane(h1)):
        g = surf.grad_many(surf.x[None])[0]
        alpha = np.linalg.norm(g) / (g @ surf.nu0)
        assert alpha == pytest.approx(1.0, abs=1e-12)


def tplane_patch_oracle(t0, ngrid=3001):
    """Riemann sum from hand formulas for the plane {vertical coord = 0}
    at base (1,0,0) under the koranyi gauge: height -2 sig / (1 + tau),
    density sqrt(1 + 4 sig^2 / (1+tau)^4), membership via the displaced
    product (tau, yphi, -yphi/2)."""
    tau = np.linspace(-2.3 * t0, 2.3 * t0, ngrid)
    sig = np.linspace(-(2.3 * t0) ** 2 * 0.25, (2.3 * t0) ** 2 * 0.25, ngrid)
    TT, SS = np.meshgrid(tau, sig, indexing="ij")
    yphi = -2.0 * SS / (1.0 + TT)
    n4 = (TT**2 + yphi**2) ** 2 + 16.0 * (yphi / 2.0) ** 2
    alpha = np.sqrt(1.0 + 4.0 * SS**2 / (1.0 + TT) ** 4)
    cell = (tau[1] - tau[0]) * (sig[1] - sig[0])
    return float(((n4 <= t0**4) * alpha).sum() * cell)


def test_tplane_patch_against_riemann_oracle(h1, koranyi):
    surf = coordinate_plane(h1)
    t0 = 0.1
    per = perimeter_ball(surf, koranyi, surf.x, t0, n_samples=400_000, seed=7)
    oracle = tplane_patch_oracle(t0)
    assert per.value.value > 0
    assert abs(per.value.value - oracle) <= 3.0 * per.value.stderr + 2e-6


def test_perimeter_monotone_in_radius(h1, koranyi):
    surf = coordinate_plane(h1)
    vals = []
    for t in (0.05, 0.1, 0.2):
        per = perimeter_ball(surf, koranyi, surf.x, t, n_samples=100_000, seed=7)
        vals.append((per.value.value, per.value.stderr))
    for (v1, s1), (v2, s2) in zip(vals, vals[1:]):
        assert v1 <= v2 + 3.0 * np.hypot(s1, s2)


def test_perimeter_rejects_radius_beyond_patch(h1, koranyi):
    # based at (1,0,0) the coordinate plane is the graph height -2*sig/(1+tau),
    # whose aligned derivative (1+tau)/2 vanishes at tau = -1.  At t = 0.6 the
    # reach bound 2t times the Koranyi horizontal block radius is 1.2, so the
    # reach region crosses tau = -1; heights near there leave the height
    # bracket and sample_patch's bracket-failure check refuses rather than
    # undercount
    surf = coordinate_plane(h1)
    with pytest.raises(RegionError):
        perimeter_ball(surf, koranyi, surf.x, 0.6, n_samples=20_000, seed=7)


def test_perimeter_center_must_be_close(h1, koranyi):
    plane = vertical_plane(h1, [1.0, 0.0])
    with pytest.raises(ValueError):
        perimeter_ball(plane, koranyi, np.array([5.0, 0.0, 0.0]), 0.5, n_samples=10_000)


def test_patch_cloud_reuse_and_failures(h1, koranyi):
    surf = coordinate_plane(h1)
    cloud = sample_patch(surf, koranyi, 0.2, 50_000, seed=7)
    assert cloud.failures == 0
    assert cloud.n_samples == 50_000
    assert cloud.volume > 0
    with pytest.raises(ValueError, match="n_samples"):
        sample_patch(surf, koranyi, 0.2, 0, seed=7)


CATALOG_PATCHES = [
    (group, gauge_spec, surface)
    for group, nus in (("h1", ("1,0", "1,1", "0.3,-1")),
                       ("h2", ("1,0,0,0", "1,1,0,0", "0.3,-1,0,0")))
    for gauge_spec in ("koranyi", "dinf:eps2=0.5", "aniso:scale=2", "starball:rho=0.5", "twoball")
    for surface in ("tplane",) + tuple("vplane:nu=" + nu for nu in nus)
] + [("r2", "euclidean", "vplane:nu=1,1")]


@pytest.mark.parametrize("group, gauge_spec, surface", CATALOG_PATCHES)
def test_reach_bounds_hold_for_every_point_within_reach(request, group, gauge_spec, surface):
    # every p in B(0, R) is eta * (phi e1) with phi = <p_1, e1> and eta in the
    # parameter plane; its parameters lie inside _reach_bounds with no slack
    from carnotperim.gauges import sample_in_ball
    from carnotperim.mc import substream

    model = request.getfixturevalue(group)
    gauge, spec, R = parse_gauge(model, gauge_spec), parse_surface(model, surface), 0.3
    p = sample_in_ball(gauge, 20_000, substream(5, model.n), radius=R)
    phi = model.v1(p) @ spec.nu0
    eta = model.multiply(p, -phi[:, None] * embed_v1(model, spec.nu0))
    coords = np.concatenate([model.v1(eta) @ spec.frame_perp.T, model.v2(eta)], axis=1)
    assert np.all(np.abs(coords) <= _reach_bounds(spec, gauge, R))


@pytest.mark.parametrize("group, gauge_spec, surface", CATALOG_PATCHES)
def test_no_catalog_cloud_expands(request, group, gauge_spec, surface):
    # with correct bounds no sample within reach can reach the growth shell
    model = request.getfixturevalue(group)
    gauge, spec = parse_gauge(model, gauge_spec), parse_surface(model, surface)
    for t, reach in ((0.1, None), (0.1, 0.1), (0.05, 0.075)):
        assert sample_patch(spec, gauge, t, 5000, seed=7, reach=reach).expansions == 0


@pytest.mark.parametrize("group", ["h1", "h2"])
def test_koranyi_vertical_reach_bound_is_root_two_quarters_of_the_squared_reach(request, group):
    # r0 = 1 and ad_norm(e1) = 1: R^2 hypot(1/4, 1/4)
    model = request.getfixturevalue(group)
    koranyi = parse_gauge(model, "koranyi")
    for surface in ("tplane", "vplane:nu=1" + ",0" * (model.m1 - 1),
                    "vplane:nu=1,1" + ",0" * (model.m1 - 2)):
        spec = parse_surface(model, surface)
        for R in (0.5, 0.3):
            bounds = _reach_bounds(spec, koranyi, R)
            assert np.allclose(bounds[: model.m1 - 1], R, rtol=1e-15, atol=0.0)
            assert np.allclose(bounds[model.m1 - 1 :], math.sqrt(2.0) / 4.0 * R * R,
                               rtol=1e-15, atol=0.0)


def whole_draw(spec, t, n_samples, hw, seed, key):
    """Every sample of a cloud in the box hw, with nothing pruned: drawn from
    the same substreams one box_batches batch at a time, with each batch's
    heights by _graph_heights and its points by the group law.  Returns
    (eta, points, alpha, ok, bracketed) over the whole cloud."""
    model = spec.model
    e1 = embed_v1(model, spec.nu0)
    eta = np.empty((n_samples, model.n - 1))
    pts = np.empty((n_samples, model.n))
    alpha = np.zeros(n_samples)
    ok = np.empty(n_samples, dtype=bool)
    bracketed = np.empty(n_samples, dtype=bool)
    start = 0
    for batch in box_batches(hw, n_samples, seed, key):
        rows = slice(start, start + len(batch))
        start = rows.stop
        base = model.multiply(spec.x, embed_chart(spec, batch))
        phi, found = _graph_heights(spec, base, BRACKET_FACTOR * t)
        pts[rows] = model.multiply(base, phi[:, None] * e1)
        grads = spec.grad_many(pts[rows])
        gn = np.linalg.norm(grads, axis=-1)
        x1f = grads @ spec.nu0
        good = found & (x1f > 1e-9 * np.maximum(gn, 1.0))
        np.divide(gn, x1f, out=alpha[rows], where=good)
        eta[rows], bracketed[rows], ok[rows] = batch, found, good
    return eta, pts, alpha, ok, bracketed


def whole_draw_of(cloud, spec, key=()):
    """The unpruned draw behind a cloud of sample_patch(..., key=key)."""
    return whole_draw(spec, cloud.t, cloud.n_samples, cloud.halfwidths, cloud.seed,
                      key + (cloud.expansions,))


def whole_cloud(spec, gauge, t, n_samples, seed=7, key=(), reach=None):
    """sample_patch's box growth and refusals on unpruned draws, each check
    a pass over the whole cloud: returns the final draw, its failures and
    expansions, and whether the cloud is refused."""
    import carnotperim.surfaces as surfaces_module

    model = spec.model
    reach = 2.0 * t if reach is None else reach
    bounds = _reach_bounds(spec, gauge, reach)
    slack = np.full(model.n - 1, BOX_SLACK)
    for attempt in range(MAX_BOX_ATTEMPTS):
        hw = slack * bounds
        draw = whole_draw(spec, t, n_samples, hw, seed, key + (attempt,))
        eta, pts, _, ok, bracketed = draw
        near = gauge.in_ball(pts, radius=reach, center=spec.x)
        touched = np.any(np.abs(eta[near & ok]) > surfaces_module.BOX_SHELL * hw, axis=0)
        if not touched.any():
            break
        if touched[: model.m1 - 1].any():
            slack[: model.m1 - 1] *= BOX_GROWTH
        if touched[model.m1 - 1 :].any():
            slack[model.m1 - 1 :] *= BOX_GROWTH
    relevant = np.all(np.abs(eta) <= bounds, axis=-1)
    failures = int((~bracketed & relevant).sum())
    refused = failures > FAIL_FRACTION * max(int(relevant.sum()), 1)
    refused |= bool((bracketed & ~ok & near).any())
    return draw, failures, attempt, refused


def sorted_kept_rows(draw, cloud, gauge, spec, reach):
    """The sample indices of a cloud's kept rows, in its sorted order: the ok
    samples of the whole draw within reach (1 + SCORE_SLACK) of the base
    point (every ok sample for twoball, no distance), sorted by the same
    argsort of their sort-axis coordinates in draw order."""
    _, pts, _, ok, _ = draw
    kept = ok
    if gauge.declared_distance:
        kept = ok & gauge.in_ball(pts, radius=reach * (1.0 + SCORE_SLACK), center=spec.x)
    kept = np.flatnonzero(kept)
    return kept[np.argsort(pts[kept, cloud.sort_axis])]


def full_scan_ratio(draw, order, cloud, gauge, y, spec):
    """ratio_on_cloud's statistic with every ok sample of the whole draw
    tested: the hits' densities summed in the cloud's sorted order."""
    _, pts, alpha, ok, _ = draw
    t = cloud.t
    hits = gauge.in_ball(pts, radius=t, center=y) & ok
    w = alpha[order[hits[order]]]
    assert hits.sum() == len(w)  # every hit is kept
    n = cloud.n_samples
    mean = w.sum() / n
    var = max(float((w * w).sum()) - n * mean * mean, 0.0) / max(n - 1, 1)
    scale = cloud.volume / t ** (spec.model.Q - 1)
    return float(mean * scale), float(math.sqrt(var / n) * scale)


@pytest.mark.parametrize(
    "group, gauge_spec, surface",
    [
        ("h1", gauge_spec, surface)
        for gauge_spec in ("koranyi", "dinf:eps2=0.5", "aniso:scale=2", "starball:rho=0.5",
                           "twoball")
        for surface in ("tplane", "vplane:nu=1,1")
    ]
    + [
        ("h2", gauge_spec, surface)
        for gauge_spec in ("koranyi", "aniso:scale=2", "starball:rho=0.5")
        for surface in ("tplane", "vplane:nu=1,1,0,0")
    ]
    + [("r2", "euclidean", "vplane:nu=1,1")],
)
def test_ratio_on_cloud_matches_full_scan(request, group, gauge_spec, surface, monkeypatch):
    import carnotperim.surfaces as surfaces_module

    # windows split into many blocks must score as one whole-window block
    monkeypatch.setattr(surfaces_module, "SCORE_BLOCK", 257)
    model = request.getfixturevalue(group)
    gauge = parse_gauge(model, gauge_spec)
    spec = parse_surface(model, surface)
    rng = np.random.default_rng(32)
    for t in (0.2, 0.03):
        cloud = sample_patch(spec, gauge, t, 5000, seed=7)
        centres = [spec.x]
        for i in range(12):
            w = rng.uniform(-1.0, 1.0, model.n) * gauge.ball_box_halfwidths()
            nw = gauge.norm(w)
            if i % 2 == 0 or nw > 1.0:  # even draws on the edge of B(x, t)
                w = model.dilate(1.0 / nw, w)
            centres.append(model.multiply(spec.x, model.dilate(t, w)))
        scores = [ratio_on_cloud(cloud, gauge, y, spec) for y in centres]
        draw = whole_draw_of(cloud, spec)
        order = sorted_kept_rows(draw, cloud, gauge, spec, 2.0 * t)
        assert scores == [full_scan_ratio(draw, order, cloud, gauge, y, spec) for y in centres]
        assert scores[0][0] > 0.0


PRUNED_CASES = [
    ("h1", "koranyi", "tplane"),
    ("h2", "koranyi", "tplane"),
    ("h1", "starball:rho=0.5", "vplane:nu=1,0"),
    ("h1", "twoball", "tplane"),
    ("h1", "aniso:scale=0.5", "tplane"),
    ("h1", "aniso:scale=2", "vplane:nu=1,1"),
]


@pytest.mark.parametrize("shell", [0.93, 0.85])
@pytest.mark.parametrize("reach", [2.0, 1.0])
@pytest.mark.parametrize("group, gauge_spec, surface", PRUNED_CASES)
def test_pruned_cloud_is_the_whole_cloud_restricted(request, group, gauge_spec, surface,
                                                     reach, shell, monkeypatch):
    # the cloud keeps exactly the ok samples within reach (1 + SCORE_SLACK)
    # of the whole draw, bit for bit, and grows and counts as the whole-cloud
    # checks do; the lower shell makes the boxes grow.  twoball and aniso
    # below scale 1 are no distance, so a ball within reach may hit beyond
    # it: they keep every ok sample
    import carnotperim.surfaces as surfaces_module

    monkeypatch.setattr(surfaces_module, "BOX_SHELL", shell)
    model = request.getfixturevalue(group)
    gauge, spec, t = parse_gauge(model, gauge_spec), parse_surface(model, surface), 0.1
    radii, real_in_ball = set(), gauge.in_ball

    def in_ball(pts, radius=1.0, center=None):
        radii.add((radius, center is spec.x))
        return real_in_ball(pts, radius=radius, center=center)

    gauge.in_ball = in_ball
    cloud = sample_patch(spec, gauge, t, 20_000, seed=7, reach=reach * t)
    del gauge.in_ball
    assert radii == {(reach * t * (1.0 + SCORE_SLACK), True)}
    draw, failures, expansions, refused = whole_cloud(spec, gauge, t, 20_000, reach=reach * t)
    _, pts, alpha, ok, _ = draw
    assert not refused
    assert (cloud.failures, cloud.expansions) == (failures, expansions)
    kept = np.flatnonzero(ok)
    if gauge.declared_distance:
        kept = np.flatnonzero(ok & gauge.in_ball(pts, radius=reach * t * (1.0 + SCORE_SLACK),
                                                 center=spec.x))
        assert 0 < len(kept) < 0.75 * len(alpha)
    order = kept[np.argsort(pts[kept, cloud.sort_axis])]
    assert np.array_equal(cloud.sorted_points, pts[order])
    assert np.all(np.diff(cloud.sorted_points[:, cloud.sort_axis]) >= 0.0)
    assert np.array_equal(cloud.alpha, alpha[order])
    assert cloud.alpha.flags.c_contiguous and np.all(cloud.alpha > 0.0)


@pytest.mark.parametrize("over", [0, 1])
def test_bracket_failures_in_one_block_count_against_the_whole_cloud(h1, koranyi, monkeypatch,
                                                                     over):
    # unbracketed rows that all open the second block of the batch are
    # refused by their share of the relevant rows of the whole cloud; a
    # share of that block's relevant rows alone would refuse both cases
    import carnotperim.surfaces as surfaces_module

    spec, t, n = coordinate_plane(h1), 0.1, 20_000
    eta = whole_draw_of(sample_patch(spec, koranyi, t, n, seed=7), spec)[0]
    relevant = np.all(np.abs(eta) <= _reach_bounds(spec, koranyi, 2.0 * t), axis=-1)
    failing = int(FAIL_FRACTION * relevant.sum()) + over
    first, second = n // 3, 2 * n // 3
    m = int(np.searchsorted(np.cumsum(relevant[first:]), failing)) + 1
    assert relevant[first : first + m].sum() == failing
    assert failing > FAIL_FRACTION * relevant[first:second].sum() and first + m < second
    real, calls = surfaces_module._graph_heights, []

    def failing_heights(spec, base, half_width, doublings=BRACKET_DOUBLINGS):
        phi, found = real(spec, base, half_width, doublings)
        calls.append(len(base))
        if len(calls) == 2:
            phi[:m], found[:m] = 0.0, False
        return phi, found

    monkeypatch.setattr(surfaces_module, "_graph_heights", failing_heights)
    if over:
        with pytest.raises(RegionError, match="failed on %d reachable samples of %d"
                           % (failing, relevant.sum())):
            sample_patch(spec, koranyi, t, n, seed=7)
    else:
        assert sample_patch(spec, koranyi, t, n, seed=7).failures == failing
    assert calls == [first, second - first, n - second]


def test_quadratic_graph_gradient_matches_fd(h1):
    from carnotperim.surfaces import quadratic_graph

    surf = quadratic_graph(h1, lin=[0.0, 1.0], quad=[[0.6, 0.1], [0.1, -0.2]])
    assert surf.f_many(surf.x[None])[0] == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(41)
    for _ in range(8):
        p = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)])
        assert_allclose(surf.grad_many(p[None])[0], fd_oracle(h1, surf.f_many, p), atol=1e-7)


def test_quadratic_graph_perimeter_positive(h1, koranyi):
    from carnotperim.surfaces import quadratic_graph

    surf = quadratic_graph(h1, lin=[0.0, 1.0], quad=[[0.5, 0.0], [0.0, 0.5]])
    per = perimeter_ball(surf, koranyi, surf.x, 0.15, n_samples=50_000, seed=7)
    assert per.value.value > 0
    assert per.failures == 0


def test_parse_surface(h1):
    assert parse_surface(h1, "tplane").name == "tplane"
    assert parse_surface(h1, "vplane:nu=0,1").name == "vplane"
    s = parse_surface(h1, "expr:x3", x=np.array([1.0, 0.0, 0.0]))
    assert s.f_many(np.array([[0.0, 0.0, 0.7]]))[0] == pytest.approx(0.7)


@pytest.mark.parametrize("spec", ["koranyi", "starball:rho=0.5"])
def test_perimeter_ball_stderr_covers_the_halfspace_identity(h1, spec):
    # on the vertical plane through the identity sigma(B(0, t)) = t^(Q-1)
    # psi(0) exactly; over 16 independent seeds at least 15 estimates lie
    # within 3 se of it
    from test_slices import koranyi_slice_oracle

    psi0 = koranyi_slice_oracle(0.0) if spec == "koranyi" else math.pi / 4.0
    plane, gauge, t = parse_surface(h1, "vplane:nu=1,0"), parse_gauge(h1, spec), 0.1
    zs = []
    for seed in range(1, 17):
        est = perimeter_ball(plane, gauge, h1.identity(), t, n_samples=20_000, seed=seed).value
        zs.append((est.value - t ** (h1.Q - 1) * psi0) / est.stderr)
    assert sum(abs(z) <= 3.0 for z in zs) >= 15, zs
