import numpy as np
import pytest
import sympy
from numpy.testing import assert_allclose
from scipy import optimize

from carnotperim import (
    ConformanceError,
    UnsupportedModelError,
    abelian,
    direction,
    heisenberg,
    parse_group,
)
from carnotperim.groups import (
    GroupModel,
    embed_v1,
    plane_blocks,
    plane_points,
    vertical_complement,
)
from carnotperim.mc import substream

from conftest import random_points


def bch_oracle(model, p, q):
    """Symbolic product p + q + [p,q]/2 from the structure constants alone."""
    m1, m2 = model.m1, model.m2
    ps = [sympy.Rational(str(float(v))) for v in p]
    qs = [sympy.Rational(str(float(v))) for v in q]
    out = [ps[i] + qs[i] for i in range(m1 + m2)]
    for k in range(m2):
        br = sympy.Integer(0)
        for i in range(m1):
            for j in range(m1):
                c = model.bracket[i, j, k]
                if c:
                    br += sympy.Rational(str(float(c))) * ps[i] * qs[j]
        out[m1 + k] += br / 2
    return np.array([float(v) for v in out])


def test_identity_element(h1):
    p = np.array([3.0, -2.0, 5.0])
    assert_allclose(h1.multiply(h1.identity(), p), p)
    assert_allclose(h1.multiply(p, h1.identity()), p)


def test_multiply_matches_symbolic_bch(h1):
    assert_allclose(
        h1.multiply(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
        np.array([1.0, 1.0, 0.5]),
    )
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = rng.uniform(-2, 2, 3).round(3)
        q = rng.uniform(-2, 2, 3).round(3)
        assert_allclose(h1.multiply(p, q), bch_oracle(h1, p, q), atol=1e-12)


def test_multiply_matches_symbolic_bch_h2():
    h2 = heisenberg(2)
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = rng.uniform(-2, 2, 5).round(3)
        q = rng.uniform(-2, 2, 5).round(3)
        assert_allclose(h2.multiply(p, q), bch_oracle(h2, p, q), atol=1e-12)


def einsum_bracket(model, a, b):
    """The bracket as the three-operand contraction of the structure table."""
    return np.einsum("...i,...j,ijk->...k", a, b, model.bracket)


def dense_model(tmp_path, rng, m1=4, m2=3):
    """A model with a dense random antisymmetric table, loaded from a file."""
    lines = ["layers: %d %d" % (m1, m2)]
    for i in range(m1):
        for j in range(i + 1, m1):
            for k in range(m2):
                lines.append("bracket: %d %d %d %r" % (i + 1, j + 1, k + 1, rng.normal()))
    path = tmp_path / "dense.txt"
    path.write_text("\n".join(lines) + "\n")
    return parse_group(str(path))


def test_bracket_matches_einsum_contraction(tmp_path):
    rng = np.random.default_rng(21)
    for model in (heisenberg(1), heisenberg(2)):
        a = random_points(model, rng, 500)[:, : model.m1]
        b = random_points(model, rng, 500)[:, : model.m1]
        # bitwise, also with one operand a single vector and with nested batches
        for x, y in ((a, b), (a[0], b), (a, b[0]), (a.reshape(25, 20, -1), b[:20])):
            assert np.array_equal(model.bracket_v1(x, y), einsum_bracket(model, x, y))
    # a dense antisymmetric table loaded from a file
    dense = dense_model(tmp_path, rng)
    a = rng.normal(size=(300, dense.m1))
    b = rng.normal(size=(300, dense.m1))
    assert_allclose(dense.bracket_v1(a, b), einsum_bracket(dense, a, b), rtol=1e-14, atol=1e-14)


def test_ad_norm_is_the_operator_norm_of_the_bracket(tmp_path):
    # |[a, v]| <= ad_norm(v) |a|, with equality on the top singular vector:
    # the matrix of a -> [a, v] is built column by column from the bracket
    rng = np.random.default_rng(23)
    for model in (heisenberg(1), heisenberg(2), heisenberg(3), dense_model(tmp_path, rng)):
        for v in rng.normal(size=(5, model.m1)):
            ad = np.stack([model.bracket_v1(e, v) for e in np.eye(model.m1)], axis=1)
            top = np.sqrt(np.linalg.eigvalsh(ad.T @ ad)[-1])
            assert model.ad_norm(v) == pytest.approx(top, rel=1e-12)
            a = rng.normal(size=(200, model.m1))
            gain = np.linalg.norm(model.bracket_v1(a, v), axis=-1) / np.linalg.norm(a, axis=-1)
            assert gain.max() <= model.ad_norm(v) * (1.0 + 1e-12)
            if model.name.startswith("heisenberg"):
                # J v for the symplectic J: the norm of v itself
                assert model.ad_norm(v) == pytest.approx(np.linalg.norm(v), rel=1e-12)
    assert abelian(3).ad_norm(np.ones(3)) == 0.0


def test_multiply_leaves_inputs_unwritten(h1):
    h2 = heisenberg(2)
    rng = np.random.default_rng(22)
    for model in (h1, h2):
        p = random_points(model, rng, 50)
        q = random_points(model, rng, 1)[0]
        readonly = p.copy()
        readonly.setflags(write=False)
        for x, y in (
            (p, q),
            (q, p),
            (p, p[::-1]),
            (np.broadcast_to(q, p.shape), p),
            (readonly, np.broadcast_to(q, p.shape)),
            (p[:, None, :], p[None, :5, :]),
        ):
            before = (x.copy(), y.copy())
            out = model.multiply(x, y)
            assert np.array_equal(x, before[0]) and np.array_equal(y, before[1])
            assert not np.shares_memory(out, x) and not np.shares_memory(out, y)
            assert_allclose(out, before[0] + before[1] + np.concatenate(
                [np.zeros(np.shape(out)[:-1] + (model.m1,)),
                 0.5 * einsum_bracket(model, before[0][..., : model.m1],
                                      before[1][..., : model.m1])], axis=-1), atol=1e-12)


def test_inverse_is_exact_negation(h1):
    assert_allclose(h1.inverse(np.array([1.0, 1.0, 0.5])), [-1.0, -1.0, -0.5])
    assert_allclose(h1.inverse(h1.identity()), h1.identity())
    rng = np.random.default_rng(13)
    pts = random_points(h1, rng, 100)
    assert np.array_equal(h1.inverse(pts), -pts)
    assert_allclose(h1.multiply(h1.inverse(pts), pts), 0.0, atol=1e-14)
    assert_allclose(h1.multiply(pts, h1.inverse(pts)), 0.0, atol=1e-14)


def test_dilate_weights(h1):
    assert_allclose(h1.dilate(2.0, np.array([1.0, 1.0, 1.0])), [2.0, 2.0, 4.0])
    p = np.array([0.3, -0.7, 0.2])
    assert_allclose(h1.dilate(1.0, p), p)
    rng = np.random.default_rng(14)
    pts = random_points(h1, rng, 50)
    r = rng.uniform(0.2, 5.0, 50)
    assert_allclose(h1.dilate(1.0 / r, h1.dilate(r, pts)), pts, atol=1e-12)
    with pytest.raises(ValueError):
        h1.dilate(-1.0, p)


def test_associativity(h1):
    rng = np.random.default_rng(15)
    p, q, w = (random_points(h1, rng, 1000) for _ in range(3))
    left = h1.multiply(h1.multiply(p, q), w)
    right = h1.multiply(p, h1.multiply(q, w))
    assert np.max(np.abs(left - right)) < 1e-10


def test_dilation_weights_are_built_once(h1):
    weights = h1.dilation_weights
    assert weights is h1.dilation_weights and not weights.flags.writeable
    assert weights.tolist() == [1.0, 1.0, 2.0]


def test_dilations_are_automorphisms(h1):
    rng = np.random.default_rng(16)
    p, q = (random_points(h1, rng, 1000) for _ in range(2))
    r = rng.uniform(0.2, 4.0, 1000)
    lhs = h1.dilate(r, h1.multiply(p, q))
    rhs = h1.multiply(h1.dilate(r, p), h1.dilate(r, q))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_split_examples(h1):
    e1 = np.array([1.0, 0.0])
    t, n = h1.split(e1, embed_v1(h1, e1))
    assert t == pytest.approx(1.0)
    assert_allclose(n, h1.identity(), atol=1e-14)

    t, n = h1.split(e1, np.array([1.0, 1.0, 0.0]))
    assert t == pytest.approx(1.0)
    assert_allclose(n, [0.0, 1.0, -0.5], atol=1e-12)


def test_split_against_fsolve_oracle(h1):
    # independent route: solve (t nu) * n = p for the unknowns directly
    nu = np.array([1.0, 0.0])
    p = np.array([1.0, 1.0, 0.0])

    def eqs(z):
        t, n2, n3 = z
        a = embed_v1(h1, t * nu)
        n = np.array([0.0, n2, n3])
        return h1.multiply(a, n) - p

    sol = optimize.fsolve(eqs, np.array([0.5, 0.5, 0.0]), xtol=1e-13)
    t, n = h1.split(nu, p)
    assert t == pytest.approx(sol[0], abs=1e-10)
    assert_allclose(n, [0.0, sol[1], sol[2]], atol=1e-10)


def test_split_recomposition(h1):
    rng = np.random.default_rng(17)
    pts = random_points(h1, rng, 200)
    for _ in range(5):
        nu = direction(h1, rng.standard_normal(2))
        t, n = h1.split(nu, pts)
        back = h1.multiply(embed_v1(h1, t[:, None] * nu), n)
        assert np.max(np.abs(back - pts)) < 1e-10
        assert np.max(np.abs(h1.v1(n) @ nu)) < 1e-12


def test_split_abelian(r2):
    nu = np.array([0.0, 1.0])
    t, n = r2.split(nu, np.array([2.0, 3.0]))
    assert t == pytest.approx(3.0)
    assert_allclose(n, [2.0, 0.0])


def test_vertical_complement(h1):
    for v in ([1.0, 0.0], [0.3, -0.8], [0.0, 2.0]):
        nu = direction(h1, np.array(v))
        perp = vertical_complement(h1, nu)
        assert perp.shape == (1, 2)
        assert abs(perp[0] @ nu) < 1e-14
        assert np.linalg.norm(perp[0]) == pytest.approx(1.0)


# --- the chart of a vertical hyperplane ---------------------------------------------

# first-layer offsets: a slice passes t nu, a blow-up zeros (None)
PLANE_OFFSETS = [0.0, 0.3, -0.3, -0.0, None]


def plane_case(model, nu, t, k, seed):
    """(frame, offset, chart coordinates) with signed zeros, also in the
    vertical block, and tiny and huge first frame coordinates."""
    nu = direction(model, nu)
    offset = np.zeros(model.m1) if t is None else t * nu
    coords = substream(seed).uniform(-1.0, 1.0, (k, model.n - 1))
    coords[:3, : model.m1 - 1] = -0.0  # signed zero products
    coords[1, 0] = 0.0
    coords[2, model.m1 - 1 :] = -0.0
    coords[3::5, 0] *= 1e-300
    coords[4::5, 0] *= 1e300
    return vertical_complement(model, nu), offset, coords


# the frames of slices along these normals and of the vplane and tplane blow-ups
@pytest.mark.parametrize("nu", [[1.0, 0.0], [0.0, -1.0], [0.6, -0.8], [-1.0, 3.0],
                                [-1.0, 0.0], [0.0, 1.0]])
@pytest.mark.parametrize("t", PLANE_OFFSETS)
def test_h1_plane_points_keep_the_matmul_bits(h1, nu, t):
    frame, offset, coords = plane_case(h1, nu, t, 8192, 3)
    cols = np.asfortranarray(coords).T
    want = np.empty((h1.n, len(coords)))
    np.matmul(frame.T, cols[:1], out=want[:2])
    want[:2] += offset[:, None]
    want[2:] = cols[1:]
    for layout in (np.ascontiguousarray(coords), np.asfortranarray(coords)):
        got = plane_points(h1, frame, layout, offset)
        assert got.flags.f_contiguous
        assert np.array_equal(got.view(np.int64), want.T.view(np.int64))


@pytest.mark.parametrize("group, nu", [
    ("h2", [0.3, -1.0, 0.5, 0.2]), ("h2", [1.0, 1.0, 0.0, 0.0]), ("h2", [0.0, 0.0, -1.0, 0.0]),
    ("h2", [0.0, 1.0, 0.0, 0.0]), ("h1", [0.6, -0.8]),
])
@pytest.mark.parametrize("t", PLANE_OFFSETS)
def test_plane_points_are_the_index_order_sum_in_both_layouts(request, group, nu, t):
    model = request.getfixturevalue(group)
    frame, offset, coords = plane_case(model, nu, t, 5000, 4)
    # offset + 0.0 plus each frame row's product, added one at a time
    want = np.broadcast_to((offset + 0.0)[:, None], (model.m1, len(coords))).copy()
    for j in range(len(frame)):
        want = want + frame[j][:, None] * coords[:, j]
    for layout in (np.ascontiguousarray(coords), np.asfortranarray(coords)):
        got = plane_points(model, frame, layout, offset)
        assert got.flags.f_contiguous
        assert np.array_equal(got[:, : model.m1].view(np.int64), want.T.view(np.int64))
        assert np.array_equal(got[:, model.m1 :].view(np.int64),
                              coords[:, model.m1 - 1 :].view(np.int64))


def test_plane_points_on_a_one_dimensional_first_layer():
    # R^1 has no nu-perp: every slice point is t nu
    model = parse_group("abelian:1")
    nu = direction(model, [-1.0])
    got = plane_points(model, vertical_complement(model, nu), np.empty((7, 0)), 0.25 * nu)
    assert np.array_equal(got, np.full((7, 1), -0.25))


def test_plane_blocks_fill_each_layer(h2):
    assert plane_blocks(h2, 0.5, 2.0).tolist() == [0.5, 0.5, 0.5, 2.0]
    # an abelian model has no vertical coordinate
    assert plane_blocks(abelian(3), 0.5, 2.0).tolist() == [0.5, 0.5]


def test_conformance_and_model_errors(h1):
    with pytest.raises(ConformanceError):
        h1.multiply(np.zeros(4), np.zeros(3))
    with pytest.raises(UnsupportedModelError):
        GroupModel((2, 1, 1))
    with pytest.raises(ConformanceError):
        GroupModel((2, 1))  # bracket missing
    bad = np.zeros((2, 2, 1))
    bad[0, 1, 0] = 1.0  # not antisymmetric
    with pytest.raises(ConformanceError):
        GroupModel((2, 1), bad)


def test_heisenberg_invariants():
    m = heisenberg(1)
    assert m.layer_dims == (2, 1)
    assert m.Q == 4 and m.n == 3
    m2 = heisenberg(3)
    assert m2.Q == 2 * 3 + 2 and m2.Q > m2.n


def test_group_file_roundtrip(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("# a comment\nlayers: 2 1\nbracket: 1 2 1 1.0\n")
    m = parse_group(str(path))
    assert m.layer_dims == (2, 1)
    assert_allclose(m.bracket, heisenberg(1).bracket)

    bad = tmp_path / "bad.txt"
    bad.write_text("layers: 2 1\nbracket: 1 2 1 1.0\nbracket: 2 1 1 1.0\n")
    with pytest.raises(ConformanceError):
        parse_group(str(bad))


def test_parse_group_names():
    assert parse_group("heisenberg:2").layer_dims == (4, 1)
    assert parse_group("abelian:3").layer_dims == (3,)
    assert abelian(2).Q == 2
