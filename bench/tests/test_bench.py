"""Tests of the benchmark itself:  python3 -m pytest bench/tests -q"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE_SCALE = 0.05


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in spans.PER_LAYER.items()
    }


def test_oracle_frozen_values():
    assert oracles.KORANYI_PSI0 == pytest.approx(0.8740191847640402, abs=1e-14)
    assert oracles.TWO_BALL_BETA == pytest.approx(3.5762242070658066, abs=1e-14)
    assert oracles.STARBALL_BETA == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert oracles.koranyi_psi(0.0) == oracles.KORANYI_PSI0
    assert oracles.koranyi_psi(1.0) == 0.0


def test_oracle_values_against_quadrature():
    integrate = pytest.importorskip("scipy.integrate")
    # psi(t) against adaptive quadrature of the unsubstituted integral
    for t in (0.0, 0.3, 0.7, 0.95):
        smax = math.sqrt(1.0 - t * t)
        ref, _ = integrate.quad(lambda s: 0.5 * math.sqrt(max(1.0 - (t * t + s * s) ** 2, 0.0)),
                                -smax, smax, epsabs=1e-13)
        assert oracles.koranyi_psi(t) == pytest.approx(ref, abs=1e-10)

    # two-ball central slice: integrate the union of the two chords over s
    def union_chord(s, r1=1.0, z1=-0.55, r2=0.5, z2=0.45):
        chords = [(z - math.sqrt(r * r - s * s), z + math.sqrt(r * r - s * s))
                  for r, z in ((r1, z1), (r2, z2)) if abs(s) < r]
        lo = [a for a, _ in chords]
        hi = [b for _, b in chords]
        total = sum(b - a for a, b in chords)
        if len(chords) == 2:
            total -= max(0.0, min(hi) - max(lo))
        return total

    ref, _ = integrate.quad(union_chord, -1.0, 1.0, points=[-0.5, 0.5], epsabs=1e-12, limit=200)
    assert oracles.TWO_BALL_BETA == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, trace):
    result, report = run.run_workload(name, seed=7, seconds=0.0, trace=trace, scale=SMOKE_SCALE)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == len(WORKLOADS[name].commands)
    expected = spans.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for key, m in result["metrics"].items():
        assert math.isfinite(m["value"]), key
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # small sizes may miss an oracle, but never exit nonzero or lose determinism
    assert not [f for f in report["failures"] if "differs" in f or "exit code" in f]
    assert report["provenance"]["src_lines"] > 0


def test_trace_restores_originals_and_keeps_bytes(tmp_path):
    from carnotperim import cli

    package = [m for n, m in sorted(sys.modules.items()) if n.startswith("carnotperim")]
    owners = package + [c for m in package for c in vars(m).values()
                        if isinstance(c, type) and c.__module__.startswith("carnotperim")]
    before = {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    argvs = [
        ["slice-profile", "--gauge", "koranyi", "--grid", "5", "--samples", "2000"],
        ["blowup", "--surface", "vplane:nu=1,0", "--gauge", "koranyi", "--radii", "0.4:1",
         "--samples", "5000", "--multistart", "2", "--local-steps", "4"],
        ["verify", "--suite", "symmetry", "--gauge", "starball:rho=0.5", "--samples", "2000"],
    ]

    def run_all(tag):
        outs = []
        for i, argv in enumerate(argvs):
            path = tmp_path / ("%s%d.out" % (tag, i))
            assert cli.main(argv + ["--seed", "3", "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        return outs

    plain = run_all("plain")
    slices_mod, beta_mod = sys.modules["carnotperim.slices"], sys.modules["carnotperim.beta"]
    original = slices_mod.slice_area
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        # name imports are wrapped too, with the same wrapper
        assert beta_mod.slice_area is slices_mod.slice_area is not original
        traced = run_all("traced")
    finally:
        tracer.restore()
    after = {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    assert traced == plain
    assert set(after) == set(before)
    assert all(after[k] is before[k] for k in before if not k[1].startswith("__"))
    seen = {s.name for s in tracer.spans}
    assert {"cli.main", "groups.multiply", "gauges.in_ball", "gauges.trace_radius",
            "slices.slice_area", "surfaces.ratio_on_cloud", "federer.federer_density",
            "mc.substream"} <= seen
    for s in tracer.spans:
        assert s.end >= s.start and s.self_s <= s.end - s.start + 1e-12
    layers = spans.layer_metrics(tracer.spans)
    assert layers["federer.radii_completed"] == 2
    assert 0.0 < layers["surfaces.ratio_on_cloud.hit_frac"] < 1.0
