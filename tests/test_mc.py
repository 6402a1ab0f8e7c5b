import math

import numpy as np
import pytest

from carnotperim import KoranyiGauge, heisenberg, slice_area
from carnotperim import mc
from carnotperim.gauges import Gauge
from carnotperim.groups import direction, vertical_complement


def _reference_draws(hw, n, seed, key):
    """Whole-batch uniform draws, one substream per BATCH rows."""
    hw = np.asarray(hw, dtype=float)
    out, b = [], 0
    while n > 0:
        size = min(n, mc.BATCH)
        out.append(mc.substream(seed, *key, b).uniform(-1.0, 1.0, size=(size, len(hw))) * hw)
        n -= size
        b += 1
    return out


def _reference_hit_or_miss(hw, inside, n, seed, key):
    hits = float(sum(int(np.count_nonzero(inside(batch)))
                     for batch in _reference_draws(hw, n, seed, key)))
    volume = float(np.prod(2.0 * np.asarray(hw)))
    var = max(hits - hits * hits / n, 0.0) / (n - 1)
    return volume * (hits / n), volume * math.sqrt(var / n), n


def _slice_inside(gauge, nu, t):
    """Membership in the slice at t, with the points built row by row."""
    model = gauge.model
    nu = direction(model, nu)
    perp = vertical_complement(model, nu)

    def inside(coords):
        pts = np.empty((coords.shape[0], model.n))
        pts[:, : model.m1] = t * nu + coords[:, : model.m1 - 1] @ perp
        pts[:, model.m1 :] = coords[:, model.m1 - 1 :]
        return gauge.in_ball(pts)

    return inside


@pytest.mark.parametrize("n", [1000, 4095, 4096, 4097, 65536, 65537, 150001])
def test_block_kernel_draws_whole_batch_numbers(n):
    gauge = KoranyiGauge(heisenberg(2))
    inside = _slice_inside(gauge, [1.0, 1.0, 0.0, 0.0], 0.3)
    hw = np.array([0.95, 0.95, 0.95, 0.25])
    expected = _reference_hit_or_miss(hw, inside, n, 5, (2,))
    for workers in (1, 3):
        est = mc.hit_or_miss(hw, inside, n, 5, key=(2,), workers=workers)
        assert (est.value, est.stderr, est.n_samples) == expected
    got = list(mc.box_batches(hw, n, 5, key=(2,)))
    ref = _reference_draws(hw, n, 5, (2,))
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def test_slice_area_hands_cache_sized_column_major_blocks(monkeypatch):
    # deterministic perf guard: whole C-order batches must not come back
    seen = []
    real_in_ball = Gauge.in_ball

    def recorded(self, pts, *args, **kwargs):
        seen.append((pts.shape[0], pts.flags.f_contiguous))
        return real_in_ball(self, pts, *args, **kwargs)

    monkeypatch.setattr(Gauge, "in_ball", recorded)
    gauge = KoranyiGauge(heisenberg(1))
    slice_area(gauge, [1.0, 0.0], 0.3, 150_000, seed=7)
    assert sum(rows for rows, _ in seen) == 150_000
    assert all(rows <= mc.BLOCK and f_order for rows, f_order in seen)
