"""carnotperim benchmark: timed CLI workloads with oracle and determinism gates.

    python3 bench/run.py --workload {slices,blowup,verify-star,all} [--seed 7]
                         [--seconds 40] [--trace 0|1]

The package is imported from the ``src`` directory next to ``bench``,
never from an installed copy; without it the run exits with code 2.  Every
process is one workload client (closed loop) with one thread and one BLAS
thread.  One run of a workload takes about --seconds in all, steps 1 and 2
included:

1. one untimed process at --workers 2, which also warms the file cache;
2. ten set-up-only processes (``import carnotperim`` plus parsing the
   workload's group, gauges and surfaces);
3. timed processes at --workers 1, one after another, until the next one
   would end more than --seconds after step 1 began.  At least one runs
   (with --trace 1, one untraced and one traced), so a run whose first pass
   is longer than --seconds ends after that pass.  With --trace 1 they
   alternate untraced and traced, and the last traced run's spans are kept
   in .bench_work/spans-<workload>-<seed>.jsonl.

Gates: a command fails on a nonzero exit, an estimate outside its oracle
tolerance, output bytes that differ between repeats (traced or not), or
output that differs from the --workers 2 run in anything but the echoed
worker count.  Failures are counted, never retried.

End-to-end metrics: wall_s (the workload's commands) and peak_rss_mb are
medians over the timed untraced processes, setup_s over every process of
step 2 and 3, and mc_efficiency is 1 / (mean stderr^2 * wall_s) over the
workload's headline estimates.  With --trace 1 the per-layer metrics of
spans.py are reported instead.  The report lists every sample, the oracle
checks, failed_frac and the provenance; its last line is one JSON object
with correct, attempted, failed and metrics.

Tests of the benchmark:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import os

# one thread per process, BLAS included, before numpy loads here or in a child
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 10

sys.path.insert(0, str(BENCH_DIR))

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, mask_workers  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "mc_efficiency": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


def _child(workload, seed, workers, outdir, result, scale, setup_only=False, trace=None):
    outdir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "--src", str(SRC),
            "--workload", workload, "--seed", str(seed), "--workers", str(workers),
            "--outdir", str(outdir), "--result", str(result), "--scale", repr(scale)]
    if setup_only:
        argv.append("--setup-only")
    if trace is not None:
        argv += ["--trace", trace]
    env = {k: v for k, v in os.environ.items() if not k.startswith("CARNOTPERIM_")}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(argv, env=env, cwd=str(outdir), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("workload process failed:\n" + proc.stderr[-4000:])
    out = json.loads(result.read_text(encoding="utf-8"))
    if Path(out["package"]).resolve().parent != (SRC / "carnotperim").resolve():
        raise BenchError("imported carnotperim from %s, not from %s" % (out["package"], SRC))
    return out


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _outputs(workload, outdir):
    return {c.out: (outdir / c.out).read_bytes() if (outdir / c.out).exists() else None
            for c in workload.commands}


def run_workload(name, seed=7, seconds=40.0, trace=False, scale=1.0):
    """One benchmark run of one workload; returns the result and a report."""
    workload = WORKLOADS[name]
    work = WORK / ("%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(workload, seed, seconds, trace, scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, scale, work):
    name = workload.name
    failed = set()  # indices of failed commands
    notes = []

    def fail(i, why):
        failed.add(i)
        notes.append("%s: %s" % (workload.commands[i].out, why))

    start = time.perf_counter()  # --seconds counts from here

    # 1. untimed --workers 2 run
    w2 = _child(name, seed, 2, work / "w2", work / "w2.json", scale)
    w2_out = _outputs(workload, work / "w2")

    # 2. set-up only
    setups = [_child(name, seed, 1, work / "setup", work / ("setup%d.json" % i), scale,
                     setup_only=True)["setup_s"] for i in range(SETUP_REPEATS)]

    # 3. timed runs
    runs, traced = [], []
    reference = None
    loop_start = time.perf_counter()
    k = 0
    while True:
        is_traced = trace and k % 2 == 1
        outdir = work / ("run%d" % k)
        res = _child(name, seed, 1, outdir, work / ("run%d.json" % k), scale,
                     trace=("%s-%d-%d" % (name, seed, k)) if is_traced else None)
        outs = _outputs(workload, outdir)
        if reference is None:
            reference = outs
            for i, (code, cmd) in enumerate(zip(res["codes"], workload.commands)):
                if code != 0:
                    fail(i, "exit code %d: %s" % (code, _last_line(res["messages"][i])))
                elif w2["codes"][i] != 0:
                    fail(i, "exit code %d at --workers 2: %s"
                         % (w2["codes"][i], _last_line(w2["messages"][i])))
                elif None in (outs[cmd.out], w2_out[cmd.out]):
                    fail(i, "no output file")
                elif mask_workers(outs[cmd.out]) != mask_workers(w2_out[cmd.out]):
                    fail(i, "output differs between --workers 1 and --workers 2")
        else:
            for i, cmd in enumerate(workload.commands):
                if outs[cmd.out] != reference[cmd.out]:
                    fail(i, "output differs on repeat%s" % (" (traced)" if is_traced else ""))
        if is_traced:  # keep the last traced run's spans after the work dir goes
            shutil.copyfile(outdir / "spans.jsonl", WORK / ("spans-%s-%d.jsonl" % (name, seed)))
        (traced if is_traced else runs).append(res)
        setups.append(res["setup_s"])
        k += 1
        now = time.perf_counter()
        pace = (now - loop_start) / k
        if now - start + pace > seconds and runs and (traced or not trace):
            break
    run_s = time.perf_counter() - start

    # oracle gates on the (repeat-checked) reference outputs
    checks = []
    for i, cmd in enumerate(workload.commands):
        if reference[cmd.out] is None:
            continue
        try:
            cmd_checks = cmd.check(work / "run0" / cmd.out)
        except (KeyError, ValueError, IndexError) as exc:
            fail(i, "unreadable output: %r" % exc)
            continue
        checks.extend(cmd_checks)
        for c in cmd_checks:
            if not c.passed:
                fail(i, "%s = %.6g, exact %.6g, |error| %.3g > tol %.3g (z = %.2f)"
                     % (c.label, c.value, c.exact, abs(c.value - c.exact), c.tol, c.z))

    wall = statistics.median(r["wall_s"] for r in runs)
    headline = [c.stderr ** 2 for c in checks if c.headline]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "mc_efficiency": (1.0 / (statistics.fmean(headline) * wall)) if headline else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    units = END_TO_END
    if trace:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        layers["federer.theta_z"] = max(
            (c.z for c in checks if c.label.endswith("theta")), default=0.0)
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        metrics = layers
        units = {k: v[0] for k, v in PER_LAYER.items()}

    n_cmd = len(workload.commands)
    result = {
        "correct": not failed,
        "attempted": n_cmd,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    report = {
        "workload": name,
        "processes": {"timed": len(runs), "traced": len(traced), "setup_only": SETUP_REPEATS,
                      "workers2": 1},
        "run_s": run_s,
        "samples": {"wall_s": [r["wall_s"] for r in runs], "setup_s": setups,
                    "traced wall_s": [r["wall_s"] for r in traced]},
        "failed_frac": len(failed) / n_cmd,
        "failures": notes,
        "checks": [
            "%s %-16s %.10g +- %.3g  exact %.10g  z %.2f"
            % ("ok" if c.passed else "XX", c.label, c.value, c.stderr, c.exact, c.z)
            for c in checks
        ],
        "provenance": _provenance(seed, w2),
    }
    return result, report


def _provenance(seed, child_result):
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": child_result["numpy"],
        "blas_threads": THREAD_ENV,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "carnotperim").glob("*.py"))),
    }


def _git_commit():
    """HEAD of the checkout; None outside a repository or without git.  The
    ceiling keeps git from looking for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _print_report(result, report):
    print("== workload %s" % report["workload"])
    for key, value in report["provenance"].items():
        print("  %-14s %s" % (key, value))
    print("  processes      %s" % report["processes"])
    print("  run_s          %.4f" % report["run_s"])
    for key, values in report["samples"].items():
        print("  %-14s %s" % (key, " ".join("%.4f" % v for v in values)))
    for line in report["checks"]:
        print("  " + line)
    for line in report["failures"]:
        print("  FAILED " + line)
    print("  %-40s %s" % ("failed_frac", report["failed_frac"]))
    for key, m in result["metrics"].items():
        print("  %-40s %.6g %s" % (key, m["value"], m["unit"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "carnotperim" / "__init__.py").is_file():
        sys.stderr.write("error: no carnotperim sources at %s\n" % SRC)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_report(result, report)
            results.append((name, result))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (n, k): v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
