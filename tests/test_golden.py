"""Seeded golden outputs of the README CLI commands, compared byte for byte.

Each case runs one command through ``carnotperim.cli.main`` with ``--out``
in a temporary directory and compares the file with ``tests/golden/<name>``.
The sample counts are small, so the whole module runs in a few seconds.  A
refactor that keeps the numbers keeps these files; a change that moves a
digit on purpose regenerates the goldens it moves, by name, and explains the
change:

    PYTHONPATH=src python tests/test_golden.py blowup_tplane.csv

With no name every golden is regenerated.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from carnotperim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (golden file, CLI arguments without --out)
CASES = (
    ("slice_profile.csv",
     ("slice-profile", "--gauge", "koranyi", "--group", "heisenberg:1", "--nu", "1,0",
      "--grid", "9", "--samples", "2000", "--seed", "7")),
    ("beta_koranyi.json",
     ("beta", "--gauge", "koranyi", "--nu", "1,0", "--samples", "5000", "--seed", "7")),
    ("beta_twoball.json",
     ("beta", "--gauge", "twoball", "--force", "--nu", "1,0", "--samples", "5000",
      "--seed", "7")),
    ("beta_constancy.csv",
     ("beta-constancy", "--gauge", "koranyi", "--directions", "3", "--samples", "2000",
      "--seed", "7")),
    ("blowup_tplane.csv",
     ("blowup", "--surface", "tplane", "--gauge", "koranyi", "--radii", "0.4:2",
      "--samples", "5000", "--seed", "7")),
    ("blowup_tplane_h2.csv",
     ("blowup", "--group", "heisenberg:2", "--surface", "tplane", "--gauge", "koranyi",
      "--radii", "0.2:2", "--samples", "5000", "--seed", "7")),
    ("blowup_vplane_starball_h2.csv",
     ("blowup", "--group", "heisenberg:2", "--surface", "vplane:nu=1,1,0,0",
      "--gauge", "starball:rho=0.5", "--radii", "0.2:2", "--samples", "5000",
      "--seed", "7")),
    ("verify_blowup_starball.json",
     ("verify", "--suite", "blowup", "--gauge", "starball:rho=0.5", "--samples", "5000",
      "--seed", "7")),
    ("verify_all_starball.json",
     ("verify", "--suite", "all", "--gauge", "starball:rho=0.5", "--samples", "5000",
      "--seed", "7")),
    ("verify_symmetry_starball_h2.json",
     ("verify", "--suite", "symmetry", "--gauge", "starball:rho=0.5", "--group",
      "heisenberg:2", "--samples", "2000", "--seed", "7")),
    ("validate_gauge.json",
     ("validate-gauge", "--gauge", "starball:rho=0.5", "--samples", "2000", "--seed", "7")),
    ("calibrate_dinf.json",
     ("calibrate-dinf", "--group", "heisenberg:1", "--eps-grid", "4,2,1,0.5,0.25",
      "--samples", "2000", "--seed", "7")),
)


def _run(argv, out: Path) -> int:
    return main(list(argv) + ["--out", str(out)])


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, tmp_path):
    out = tmp_path / name
    assert _run(argv, out) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    names = sys.argv[1:] or [name for name, _ in CASES]
    unknown = set(names) - {name for name, _ in CASES}
    if unknown:
        sys.exit("unknown golden: %s" % ", ".join(sorted(unknown)))
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        if name in names:
            code = _run(argv, GOLDEN / name)
            sys.stdout.write("%s: exit %d\n" % (name, code))
