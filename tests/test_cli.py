import json

import pytest

from carnotperim.cli import main


def run_cli(args, capsys=None):
    code = main(args)
    return code


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_slice_profile_csv_default_grid(tmp_path):
    out = tmp_path / "profile.csv"
    code = main([
        "slice-profile", "--gauge", "koranyi", "--group", "heisenberg:1",
        "--nu", "1,0", "--samples", "2000", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "t,area,stderr,n_samples"
    assert len(data) == 1 + 41  # header + default grid
    assert any(l.startswith("# seed=") for l in meta)
    assert any(l.startswith("# samples=") for l in meta)


def test_cli_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["slice-profile", "--gauge", "koranyi", "--nu", "1,0",
            "--samples", "2000", "--grid", "9", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert read(a) == read(b)
    c = tmp_path / "c.csv"
    assert main(argv[:-1] + ["8", "--out", str(c)]) == 0
    assert read(a) != read(c)


def test_verify_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "symmetry", "--gauge", "koranyi",
            "--samples", "2000", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert read(a) == read(b)


def test_verify_output_modes(tmp_path, capsys):
    # --out: JSON to the file and the table to stdout; no --out: JSON on
    # stdout by default, the table alone with --format csv
    argv = ["verify", "--suite", "convexity", "--gauge", "koranyi", "--samples", "2000"]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    table = capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "reports"}
    assert table.startswith("suite convexity  outcome pass\n")
    assert all(l.startswith("  [ok] ") for l in table.splitlines()[1:])
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == table


def test_beta_json_output(tmp_path):
    out = tmp_path / "beta.json"
    code = main(["beta", "--gauge", "koranyi", "--nu", "1,0",
                 "--samples", "5000", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["gauge"] == "koranyi"
    assert payload["result"]["method"] == "convex_fast_path"
    assert payload["result"]["value"]["stderr"] > 0
    assert payload["result"]["spherical_constant"]["c_qm1"] == pytest.approx(
        payload["result"]["spherical_constant"]["omega"] / 8.0
    )


# a small blowup run for the gauge-guard cases
BLOWUP_SMALL = ["blowup", "--surface", "vplane:nu=1,0", "--radii", "0.2:1",
                "--samples", "2000"]


def test_beta_dinf_requires_calibration(tmp_path, capsys):
    code = main(["beta", "--gauge", "dinf:eps2=2", "--nu", "1,0", "--samples", "5000"])
    assert code == 1
    err = capsys.readouterr().err
    assert "calibrate-dinf" in err
    # blowup applies the same guard
    argv = BLOWUP_SMALL + ["--gauge", "dinf:eps2=2"]
    assert main(argv) == 1
    assert "calibrate-dinf" in capsys.readouterr().err
    assert main(argv + ["--force", "--out", str(tmp_path / "b.csv")]) == 0


def test_beta_dinf_with_calibration_file(tmp_path):
    calib = tmp_path / "calib.json"
    code = main(["calibrate-dinf", "--group", "heisenberg:1",
                 "--eps-grid", "4,2,1,0.5,0.25", "--samples", "5000",
                 "--out", str(calib)])
    assert code == 0
    payload = json.loads(calib.read_text())
    assert payload["result"]["eps2"] == pytest.approx(2.0)
    assert payload["result"]["certified"] == "sample"

    out = tmp_path / "beta.json"
    code = main(["beta", "--gauge", "dinf:eps2=2", "--nu", "1,0",
                 "--samples", "5000", "--calibration", str(calib), "--out", str(out)])
    assert code == 0

    # eps2 above the certified maximum is refused
    code = main(["beta", "--gauge", "dinf:eps2=3", "--nu", "1,0",
                 "--samples", "5000", "--calibration", str(calib)])
    assert code == 1

    # --force bypasses the guard
    code = main(["beta", "--gauge", "dinf:eps2=2", "--nu", "1,0",
                 "--samples", "5000", "--force", "--out", str(tmp_path / "f.json")])
    assert code == 0


def test_dinf_guard_refuses_files_that_are_no_calibration_of_the_group(tmp_path, capsys):
    # each ends in "error: ..." and exit 1, not a traceback, and an eps2 is
    # accepted only from a calibration made on the same group
    calib = tmp_path / "calib.json"
    assert main(["calibrate-dinf", "--group", "heisenberg:1", "--eps-grid", "4,2,1",
                 "--samples", "2000", "--out", str(calib)]) == 0
    validated = tmp_path / "validate.json"
    assert main(["validate-gauge", "--gauge", "koranyi", "--samples", "2000",
                 "--out", str(validated)]) == 0
    listed = tmp_path / "list.json"
    listed.write_text("[2.0]\n")
    beta_h2 = ["beta", "--group", "heisenberg:2", "--gauge", "dinf:eps2=1", "--nu", "1,0,0,0",
               "--samples", "2000"]
    for argv, expect in (
        (beta_h2 + ["--calibration", str(validated)], "not a calibrate-dinf output"),
        (beta_h2 + ["--calibration", str(listed)], "not a calibrate-dinf output"),
        (beta_h2 + ["--calibration", str(calib)], "calibrates heisenberg:1, not heisenberg:2"),
        (BLOWUP_SMALL + ["--group", "heisenberg:2", "--surface", "vplane:nu=1,0,0,0",
                         "--gauge", "dinf:eps2=1", "--calibration", str(calib)],
         "calibrates heisenberg:1"),
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expect in err
    assert main(["beta", "--gauge", "dinf:eps2=1", "--nu", "1,0", "--samples", "2000",
                 "--calibration", str(calib), "--out", str(tmp_path / "b.json")]) == 0


def test_beta_refuses_invalid_gauge(tmp_path, capsys):
    # the two-ball body is not a distance: beta refuses without --force
    argv = ["beta", "--gauge", "twoball:r1=1,z1=-0.55,r2=0.5,z2=0.45",
            "--nu", "1,0", "--samples", "5000"]
    assert main(argv) == 1
    assert "validate-gauge" in capsys.readouterr().err
    out = tmp_path / "tb.json"
    assert main(argv + ["--force", "--out", str(out)]) == 0
    # blowup applies the same guard
    argv = BLOWUP_SMALL + ["--gauge", "twoball:r1=1,z1=-0.55,r2=0.5,z2=0.45"]
    assert main(argv) == 1
    assert "validate-gauge" in capsys.readouterr().err
    assert main(argv + ["--force", "--out", str(tmp_path / "tb.csv")]) == 0


def test_beta_constancy_csv(tmp_path):
    out = tmp_path / "const.csv"
    code = main(["beta-constancy", "--gauge", "koranyi", "--directions", "3",
                 "--samples", "5000", "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "direction,beta,stderr"
    assert len(lines) == 4


def test_blowup_csv(tmp_path):
    out = tmp_path / "blowup.csv"
    code = main(["blowup", "--surface", "vplane:nu=1,0", "--gauge", "koranyi",
                 "--radii", "0.4:2", "--samples", "5000", "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,ratio,stderr,centered_ratio,centered_stderr"
    assert len(lines) == 4


def test_blowup_skips_refused_radii(tmp_path):
    # t = 0.8 on tplane and t = 0.3 on the expr graph are refused; the
    # smaller radii still give rows and the run exits 0
    cases = (
        (["--surface", "tplane", "--radii", "0.8:3", "--samples", "10000"],
         ["0.4", "0.2", "0.1"]),
        (["--surface", "expr:x3-0.2*x2^2", "--point", "1,0,0", "--radii", "0.3:2",
          "--samples", "10000"],
         ["0.15", "0.075"]),
    )
    for i, (argv, radii) in enumerate(cases):
        out = tmp_path / ("%d.csv" % i)
        assert main(["blowup"] + argv + ["--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert [r.split(",")[0] for r in rows] == radii


@pytest.mark.parametrize("radii", ["0.4", "0.4:-1"])
def test_blowup_rejects_malformed_radii(radii, capsys):
    code = main(["blowup", "--surface", "vplane:nu=1,0", "--gauge", "koranyi",
                 "--radii", radii, "--samples", "5000"])
    assert code == 1
    assert "T0:HALVINGS" in capsys.readouterr().err


def test_validate_gauge_json(tmp_path, capsys):
    code = main(["validate-gauge", "--gauge", "dinf:eps2=1000", "--samples", "5000"])
    assert code == 0  # violations are reported, not thrown
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["checks"]["triangle"]["violations"] > 0
    assert payload["result"]["witness"] is not None


def test_verify_exit_code_on_conclusion_violation(tmp_path, capsys):
    # anisotropic gauge: symmetry conclusion fails -> nonzero exit
    code = main(["verify", "--suite", "symmetry", "--gauge", "aniso:scale=2",
                 "--samples", "2000"])
    assert code == 1
    # convex koranyi passes
    code = main(["verify", "--suite", "convexity", "--gauge", "koranyi",
                 "--samples", "2000"])
    assert code == 0


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CARNOTPERIM_SEED", "123")
    out = tmp_path / "p.csv"
    main(["slice-profile", "--gauge", "koranyi", "--samples", "2000",
          "--grid", "5", "--out", str(out)])
    assert "# seed=123" in out.read_text()


def test_group_file_via_cli(tmp_path):
    model_file = tmp_path / "h1.txt"
    model_file.write_text("layers: 2 1\nbracket: 1 2 1 1.0\n")
    out = tmp_path / "p.csv"
    code = main(["slice-profile", "--group", str(model_file), "--gauge", "koranyi",
                 "--samples", "2000", "--grid", "5", "--out", str(out)])
    assert code == 0


def test_slice_profile_on_the_line(tmp_path):
    # on R^1 the slice at t is the one point t*nu: support 1, every area 1
    out = tmp_path / "line.csv"
    code = main(["slice-profile", "--group", "abelian:1", "--gauge", "euclidean",
                 "--nu", "1", "--grid", "9", "--samples", "2000", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    support = [float(l.split("=")[1]) for l in lines if l.startswith("# support=")]
    assert abs(support[0] - 1.0) <= 1e-8
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 9
    for t, area, stderr, _ in rows[1:-1]:
        assert (float(area), float(stderr)) == (1.0, 0.0)


def test_blowup_refusal_names_what_the_cli_sets(capsys):
    code = main(["blowup", "--surface", "expr:x3 - x1^2 - x2^2", "--point", "0.5,0,0.25",
                 "--samples", "5000"])
    assert code == 1
    err = capsys.readouterr().err
    assert "working box of radius 0.5" in err
    assert "--point" in err and "--surface" in err
    assert "working_radius" not in err


def test_workers_flag_is_accepted_and_ignored(tmp_path, capsys):
    # the benchmark under bench/ appends --workers to every command
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["beta", "--gauge", "koranyi", "--nu", "1,0", "--samples", "2000", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(b)]) == 0
    assert read(a) == read(b)
    assert b"workers" not in read(b)
    for command in ("slice-profile", "beta", "beta-constancy", "blowup", "verify",
                    "validate-gauge", "calibrate-dinf"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--workers" not in capsys.readouterr().out
