"""Seeded golden outputs of the README CLI commands, compared byte for byte.

Each case runs one command through ``carnotperim.cli.main`` with ``--out``
in a temporary directory and compares the file with ``tests/golden/<name>``.
The sample counts are small, so the whole module runs in a few seconds.  A
refactor that keeps the numbers keeps these files; a change that moves a
digit on purpose regenerates the goldens it moves, by name, and explains the
change:

    PYTHONPATH=src python tests/test_golden.py blowup_tplane.csv

With no name every golden is regenerated.  For each regenerated file the
script prints a markdown table of the fields that moved, old → new: JSON
leaf paths, or CSV metadata keys and cells labelled by the row's first cell.
"""

from __future__ import annotations

import json
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
    ("beta_constancy.json",
     ("beta-constancy", "--gauge", "koranyi", "--directions", "3", "--samples", "2000",
      "--format", "json", "--seed", "7")),
    ("blowup_tplane.csv",
     ("blowup", "--surface", "tplane", "--gauge", "koranyi", "--radii", "0.4:2",
      "--samples", "5000", "--seed", "7")),
    ("blowup_tplane.json",
     ("blowup", "--surface", "tplane", "--gauge", "koranyi", "--radii", "0.4:2",
      "--samples", "5000", "--format", "json", "--seed", "7")),
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
    ("validate_gauge_dinf.json",
     ("validate-gauge", "--gauge", "dinf:eps2=1000", "--samples", "2000", "--seed", "7")),
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


def _fields(name, text):
    """The leaf fields of a golden, in file order, as {key: (label, value)}."""
    out = {}
    if name.endswith(".json"):
        def walk(node, path):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, "%s.%s" % (path, k) if path else k)
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    walk(v, "%s[%d]" % (path, i))
            else:
                out[path] = (path, node if isinstance(node, str) else json.dumps(node))

        walk(json.loads(text), "")
        return out
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            out["# " + key] = ("# " + key, value)
        elif line:
            rows.append(line.split(","))
    header = rows[0] if rows else []
    for i, row in enumerate(rows[1:]):  # keyed by row index, labelled by the first cell
        for j, cell in enumerate(row):
            col = header[j] if j < len(header) else "column %d" % (j + 1)
            out[(i, j)] = ("%s=%s %s" % (header[0], row[0], col), cell)
    return out


def digit_table(name, old_text, new_text):
    """A markdown table of the fields of one golden that moved, old -> new."""
    old = _fields(name, old_text) if old_text is not None else {}
    new = _fields(name, new_text)
    absent = (None, "(absent)")
    moved = [k for k in list(new) + [k for k in old if k not in new]
             if old.get(k, absent)[1] != new.get(k, absent)[1]]
    lines = ["`%s`:" % name, ""]
    if not moved:
        return "\n".join(lines + ["no field moved", ""])
    lines += ["| field | parent | this change |", "|---|---|---|"]
    for k in moved:
        label = (new.get(k) or old[k])[0]
        lines.append("| %s | %s | %s |" % (label, old.get(k, absent)[1], new.get(k, absent)[1]))
    return "\n".join(lines + [""])


def test_digit_table_lists_the_moved_fields():
    old = '{"a": {"b": [1.5, 2]}, "c": "x"}'
    new = '{"a": {"b": [1.25, 2]}, "c": "x", "d": null}'
    assert digit_table("r.json", old, new).splitlines()[2:] == [
        "| field | parent | this change |", "|---|---|---|",
        "| a.b[0] | 1.5 | 1.25 |", "| d | (absent) | null |"]
    old = "# seed=7\n# theta=0.8\nt,ratio\n0.4,0.9\n0.2,0.7\n"
    new = "# seed=7\n# theta=0.85\nt,ratio\n0.4,0.9\n0.2,0.75\n"
    assert digit_table("b.csv", old, new).splitlines()[4:] == [
        "| # theta | 0.8 | 0.85 |", "| t=0.2 ratio | 0.7 | 0.75 |"]
    assert "no field moved" in digit_table("b.csv", old, old)


if __name__ == "__main__":
    names = sys.argv[1:] or [name for name, _ in CASES]
    unknown = set(names) - {name for name, _ in CASES}
    if unknown:
        sys.exit("unknown golden: %s" % ", ".join(sorted(unknown)))
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        if name in names:
            path = GOLDEN / name
            before = path.read_text() if path.exists() else None
            code = _run(argv, path)
            sys.stdout.write("%s: exit %d\n\n" % (name, code))
            if code == 0:
                sys.stdout.write(digit_table(name, before, path.read_text()) + "\n")
