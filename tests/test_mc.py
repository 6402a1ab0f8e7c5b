import dataclasses
import json
import math

import numpy as np
import pytest

from carnotperim import (
    BetaResult,
    DInfinityGauge,
    KoranyiGauge,
    VerificationReport,
    beta_constancy,
    calibrate_dinfty,
    convexity_check,
    default_schedule,
    federer_density,
    heisenberg,
    perimeter_ball,
    slice_area,
    validate,
    vertical_plane,
)
from carnotperim import mc
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


# a slice box's sqrt(1 - t^2) widths, and halfwidths whose draws are tiny,
# subnormal or huge
HALFWIDTHS = (
    [0.95, 0.95, 0.95, 0.25],
    [math.sqrt(1.0 - 0.3**2), math.sqrt(1.0 - 0.7**2), 0.25],
    [1e-300, 1e-310, 1e300, 6.5e299],
)


@pytest.mark.parametrize("n", [1000, 4095, 4096, 4097, 8191, 8192, 8193, 65536, 65537, 150001])
def test_block_kernel_draws_whole_batch_numbers(n):
    gauge = KoranyiGauge(heisenberg(2))
    inside = _slice_inside(gauge, [1.0, 1.0, 0.0, 0.0], 0.3)
    hw = np.array([0.95, 0.95, 0.95, 0.25])
    expected = _reference_hit_or_miss(hw, inside, n, 5, (2,))
    est = mc.hit_or_miss(hw, inside, n, 5, key=(2,))
    assert (est.value, est.stderr, est.n_samples) == expected
    for hw in HALFWIDTHS:
        # bit for bit: the int64 views tell -0.0 from 0.0 and every last bit
        ref_batches = _reference_draws(hw, n, 5, (2,))
        ref = np.concatenate(ref_batches).view(np.int64)
        got = list(mc.box_batches(hw, n, 5, key=(2,)))
        assert [len(a) for a in got] == [len(b) for b in ref_batches]
        assert np.array_equal(np.concatenate(got).view(np.int64), ref)
        blocks = []
        mc.hit_or_miss(hw, lambda b: blocks.append(b.copy()) or np.ones(len(b), bool), n, 5,
                       key=(2,))
        assert np.array_equal(np.concatenate(blocks).view(np.int64), ref)


def test_slice_area_hands_cache_sized_column_major_blocks(monkeypatch):
    # deterministic perf guard: whole C-order batches must not come back
    seen = []
    gauge = KoranyiGauge(heisenberg(1))
    real_in_ball = type(gauge).in_ball  # the override that runs, not Gauge.in_ball

    def recorded(self, pts, *args, **kwargs):
        seen.append((pts.shape[0], pts.flags.f_contiguous))
        return real_in_ball(self, pts, *args, **kwargs)

    monkeypatch.setattr(type(gauge), "in_ball", recorded)
    slice_area(gauge, [1.0, 0.0], 0.3, 150_000, seed=7)
    assert sum(rows for rows, _ in seen) == 150_000
    assert all(rows <= mc.BLOCK and f_order for rows, f_order in seen)


@pytest.fixture(scope="module")
def records():
    """One instance of every result record, from small runs on H^1."""
    model = heisenberg(1)
    gauge = KoranyiGauge(model)
    plane = vertical_plane(model, [1.0, 0.0])
    density = federer_density(plane, gauge, sched=default_schedule(0.4, 1, 4000, seed=7))
    constancy = beta_constancy(gauge, 2, n_samples=2000)
    report = convexity_check(gauge, 500)
    return [
        constancy.results[0].value, report.checks[0], report,
        validate(DInfinityGauge(model, 1000.0), 200),  # failing, with a witness
        calibrate_dinfty(model, [1.0, 0.5], samples=200),
        constancy.results[0], constancy,
        perimeter_ball(plane, gauge, plane.x, 0.2, 4000),
        density.records[0], density,
    ]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# record type: (fields its as_dict drops, keys it adds)
_OVERRIDES = {BetaResult: ({"c_qm1"}, {"spherical_constant"}),
              VerificationReport: (set(), {"passed"})}


def test_every_record_is_its_fields_by_name(records):
    package = {c for c in _subclasses(mc.Record) if c.__module__.startswith("carnotperim.")}
    assert {type(r) for r in records} == package and len(package) == 10
    for r in records:
        d = r.as_dict()
        dropped, added = _OVERRIDES.get(type(r), (set(), set()))
        assert set(d) == {f.name for f in dataclasses.fields(r)} - dropped | added
        assert json.loads(json.dumps(d)) == d  # plain lists and dicts only
    beta_result = records[5]
    assert beta_result.as_dict()["spherical_constant"] == {
        "omega": beta_result.value.value, "c_qm1": beta_result.c_qm1}
    assert records[2].as_dict()["passed"] is records[2].passed


def test_record_makes_nested_values_plain():
    @dataclasses.dataclass(frozen=True)
    class Nested(mc.Record):
        est: mc.Estimate
        pair: tuple
        arr: np.ndarray
        table: dict

    est = mc.Estimate(0.5, 0.25, 4, 7)
    rec = Nested(est, ((1, 2), np.arange(2.0)), np.eye(2), {"a": (est,), "b": [np.float64(3.0)]})
    plain = {"value": 0.5, "stderr": 0.25, "n_samples": 4, "seed": 7}
    assert rec.as_dict() == {
        "est": plain,
        "pair": [[1, 2], [0.0, 1.0]],
        "arr": [[1.0, 0.0], [0.0, 1.0]],
        "table": {"a": [plain], "b": [3.0]},
    }
