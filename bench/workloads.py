"""The benchmark's workloads and the gates that check their outputs.

Each workload is a fixed sequence of carnotperim CLI commands on
heisenberg:1, run by one client in one fresh process (a closed loop).  The
seed and worker count are appended to every command; every command writes
its result to a file, which the oracle and determinism gates then read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from oracles import KORANYI_PSI0, STARBALL_BETA, TWO_BALL_BETA, koranyi_psi

GROUP = "heisenberg:1"
Z_GATE = 4.0  # an estimate this many standard errors from its oracle fails
THETA_REL_TOL = 0.05  # criterion 4 / blowup_suite tolerance for blow-up densities


@dataclass(frozen=True)
class Check:
    """One estimate compared with its exact value."""

    label: str
    value: float
    stderr: float
    exact: float
    tol: float
    headline: bool  # enters mc_efficiency

    @property
    def passed(self) -> bool:
        return abs(self.value - self.exact) <= self.tol

    @property
    def z(self) -> float:
        err = abs(self.value - self.exact)
        return err / self.stderr if self.stderr > 0 else (0.0 if err == 0 else float("inf"))


def z_check(label, value, stderr, exact, headline):
    return Check(label, value, stderr, exact, Z_GATE * stderr, headline)


def theta_check(label, value, stderr, exact):
    """Blow-up densities use the program's own tolerance: the best ratio is
    a max over many centres scored on one cloud, so it carries a known
    winner's-curse bias of a few standard errors (reported as theta_z)."""
    tol = max(THETA_REL_TOL * abs(exact), 3.0 * stderr)
    return Check(label, value, stderr, exact, tol, True)


@dataclass(frozen=True)
class Command:
    out: str  # output file name
    argv: tuple  # CLI arguments; --group, --seed, --workers and --out are appended
    check: object  # Path -> list of Check


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    gauges: tuple  # gauge specs built during set-up
    surfaces: tuple  # surface specs built during set-up


def _read_csv(path: Path):
    """The '# key=value' metadata and the data rows (after the header line)."""
    meta, rows = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            rows.append(line.split(","))
    return meta, rows[1:]


def _check_profile(path):
    _, rows = _read_csv(path)
    return [
        z_check("psi(%s)" % t, float(a), float(se), koranyi_psi(float(t)), False)
        for t, a, se, _ in rows
    ]


def _check_betas(path):
    # rows are direction components, beta, stderr
    _, rows = _read_csv(path)
    return [
        z_check("beta[%s]" % ",".join(r[:-2]), float(r[-2]), float(r[-1]), KORANYI_PSI0, True)
        for r in rows
    ]


def _check_two_ball(path):
    value = json.loads(path.read_text(encoding="utf-8"))["result"]["value"]
    return [z_check("twoball beta", value["value"], value["stderr"], TWO_BALL_BETA, True)]


def _check_blowup(path):
    meta, _ = _read_csv(path)
    theta, se = float(meta["extrapolated_theta"]), float(meta["extrapolated_stderr"])
    return [theta_check("tplane theta", theta, se, KORANYI_PSI0)]


def _check_verify_star(path):
    reports = {r["suite"]: r for r in json.loads(path.read_text(encoding="utf-8"))["reports"]}
    b = reports["busemann"]["info"]["beta"]
    theta = reports["blowup"]["info"]["points"][0]["theta"]
    return [
        z_check("busemann beta", b["value"], b["stderr"], STARBALL_BETA, True),
        theta_check("vplane theta", theta["value"], theta["stderr"], STARBALL_BETA),
    ]


# The comment above each workload says why it is here; BENCHMARK.json has
# a one-line version.
WORKLOADS = {
    w.name: w
    for w in (
        # Hit-or-miss slice sampling in slices/mc and membership tests in gauges
        # do almost all the work; groups.multiply, surfaces and federer do none,
        # so a blow-up optimisation should show no change here.  The two-ball
        # beta takes the grid_refine path (profile, then golden section).
        Workload(
            "slices",
            (
                Command("profile.csv",
                        ("slice-profile", "--gauge", "koranyi", "--grid", "41", "--samples", "1e6"),
                        _check_profile),
                Command("betas.csv",
                        ("beta-constancy", "--gauge", "koranyi", "--directions", "8",
                         "--samples", "1e6"),
                        _check_betas),
                Command("twoball.json",
                        ("beta", "--gauge", "twoball", "--force", "--samples", "1e6"),
                        _check_two_ball),
            ),
            ("koranyi", "twoball"),
            (),
        ),
        # Acceptance criterion 4 at its own size.  The groups product and
        # bracket, the graph-height solve in surfaces and about 880
        # ratio_on_cloud scorings in federer take nearly all the time; slices
        # does nothing, so a slice-kernel change should show no change here.
        # The sample count is not scaled down: the winner's-curse bias of theta
        # is about 3 se at any size, so fewer samples would fail the 5% gate.
        Workload(
            "blowup",
            (
                Command("blowup.csv",
                        ("blowup", "--surface", "tplane", "--gauge", "koranyi",
                         "--radii", "0.4:6", "--samples", "200000"),
                        _check_blowup),
            ),
            ("koranyi",),
            ("tplane",),
        ),
        # The only workload with the star_norm bisection and the trace-radius
        # loop; it also runs the slice and blow-up layers at small per-call
        # sizes (40k samples per ball, 4 radii), so a change that speeds up
        # large batches but adds per-call overhead shows here.
        Workload(
            "verify-star",
            (
                Command("verify.json",
                        ("verify", "--suite", "all", "--gauge", "starball:rho=0.5",
                         "--samples", "50000"),
                        _check_verify_star),
            ),
            ("starball:rho=0.5",),
            ("vplane:nu=1,0",),
        ),
    )
}


def command_argv(cmd: Command, seed: int, workers: int, outdir: Path, scale: float = 1.0):
    """Full CLI argv for one command; scale multiplies --samples (smoke tests only)."""
    argv = list(cmd.argv)
    if scale != 1.0:
        i = argv.index("--samples") + 1
        argv[i] = repr(float(argv[i]) * scale)
    return argv + ["--group", GROUP, "--seed", str(seed), "--workers", str(workers),
                   "--out", str(outdir / cmd.out)]


_WORKERS_ECHO = (
    (re.compile(rb"(?m)^# workers=\d+$"), b"# workers=*"),
    (re.compile(rb'"workers": \d+'), b'"workers": *'),
)


def mask_workers(data: bytes) -> bytes:
    """Blank the echoed --workers value, the one config line that is meant
    to differ between runs at different worker counts."""
    for pattern, repl in _WORKERS_ECHO:
        data = pattern.sub(repl, data)
    return data
