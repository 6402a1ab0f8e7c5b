import numpy as np
import pytest

from carnotperim import beta, beta_constancy, slice_area
from carnotperim.mc import joint_stderr

from conftest import KORANYI_PSI0


def test_koranyi_beta_fast_path(koranyi):
    result = beta(koranyi, [1.0, 0.0], n_samples=200_000, seed=7)
    assert result.method == "convex_fast_path"
    assert result.argmax_t == 0.0
    assert abs(result.value.value - KORANYI_PSI0) <= 3.0 * result.value.stderr
    # ball constants for Q = 4
    assert result.omega == pytest.approx(result.value.value)
    assert result.c_qm1 == pytest.approx(result.value.value / 8.0)


def test_dinf_beta_is_rectangle_area(dinf2):
    # central slice of the dinf ball is the rectangle |s|<=1, |u|<=1/eps2^2
    target = 4.0 / dinf2.eps2**2
    result = beta(dinf2, [0.0, 1.0], n_samples=200_000, seed=7)
    assert abs(result.value.value - target) <= 3.0 * result.value.stderr
    assert result.argmax_t == 0.0


def test_starball_beta_is_disc_area(starball):
    target = np.pi * 0.25  # central slice of the Euclidean ball, rho = 0.5
    result = beta(starball, [1.0, 0.0], n_samples=100_000, seed=7)
    assert abs(result.value.value - target) <= 3.0 * result.value.stderr


def test_beta_dominates_central_slice(koranyi, twoball):
    for g in (koranyi, twoball):
        result = beta(g, [1.0, 0.0], n_samples=50_000, seed=7)
        psi0 = slice_area(g, [1.0, 0.0], 0.0, n_samples=50_000, seed=11)
        assert result.value.value >= psi0.value - 3.0 * joint_stderr(result.value, psi0)


def test_beta_direction_reversal(koranyi):
    plus = beta(koranyi, [0.6, 0.8], n_samples=50_000, seed=7, key=(0,))
    minus = beta(koranyi, [-0.6, -0.8], n_samples=50_000, seed=7, key=(1,))
    assert abs(plus.value.value - minus.value.value) <= 3.0 * joint_stderr(
        plus.value, minus.value
    )


def test_twoball_takes_grid_refine_path(twoball):
    result = beta(twoball, [1.0, 0.0], n_samples=30_000, seed=7)
    assert result.method == "grid_refine"
    # profile of the two-ball body still peaks at the center
    assert abs(result.argmax_t) <= 0.15


def test_fast_path_agrees_with_grid_refine(koranyi):
    import copy

    fast = beta(koranyi, [1.0, 0.0], n_samples=60_000, seed=7)
    # force the grid path by dropping the convexity declaration
    g2 = copy.copy(koranyi)
    g2.declared_convex = False
    slow = beta(g2, [1.0, 0.0], n_samples=60_000, seed=7)
    assert slow.method == "grid_refine"
    assert abs(fast.value.value - slow.value.value) <= 3.0 * joint_stderr(
        fast.value, slow.value
    )


def test_beta_constancy_koranyi(koranyi):
    report = beta_constancy(koranyi, n_directions=4, n_samples=60_000, seed=7)
    assert report.constant_within_tolerance
    assert report.max_pairwise_dev <= report.tolerance


def test_beta_constancy_dinf(dinf2):
    # rotation-invariant rectangle slices: every direction returns the same
    # area (the box degenerates to the slice, so the estimates are exact)
    report = beta_constancy(dinf2, n_directions=8, n_samples=50_000, seed=7)
    assert report.constant_within_tolerance
    for r in report.results:
        assert r.value.value == pytest.approx(4.0 / dinf2.eps2**2, abs=1e-12)


def test_beta_constancy_abelian_disc(disc):
    report = beta_constancy(disc, n_directions=8, n_samples=60_000, seed=7)
    assert report.constant_within_tolerance
    for r in report.results:
        # the longest chord of the unit disc
        assert abs(r.value.value - 2.0) <= 3.0 * r.value.stderr


def test_beta_constancy_needs_two_directions(koranyi):
    with pytest.raises(ValueError):
        beta_constancy(koranyi, n_directions=1)
