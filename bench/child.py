"""One workload process: set up, then run the workload's commands in order.

    python3 child.py --src DIR --workload NAME --seed N --workers K --outdir DIR
                     --result FILE [--setup-only] [--trace RUN_ID] [--scale X]

Set-up is ``import carnotperim`` plus parsing the workload's group, gauges
and surfaces; it is timed from before the import, so nothing heavy is
imported above it.  Commands go through ``carnotperim.cli.main`` in this
process.  The result (timings, exit codes, error messages, peak memory and,
when traced, per-layer metrics) is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="run id; traces the commands")
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import carnotperim
    from carnotperim import gauges, groups, surfaces

    import_s = time.perf_counter() - start
    from workloads import GROUP, WORKLOADS  # imports the oracles; not set-up

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    model = groups.parse_group(GROUP)
    for spec in workload.gauges:
        gauges.parse_gauge(model, spec)
    for spec in workload.surfaces:
        surfaces.parse_surface(model, spec)
    setup_s = import_s + time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "package": carnotperim.__file__,
        "numpy": sys.modules["numpy"].__version__,
    }
    if not args.setup_only:
        result.update(_run_commands(workload, args))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _run_commands(workload, args):
    from carnotperim import cli

    from workloads import command_argv

    tracer = None
    if args.trace is not None:
        if args.workers != 1:
            raise ValueError("tracing needs --workers 1")
        from spans import Tracer

        tracer = Tracer(args.trace)
        tracer.install()
    outdir = Path(args.outdir)
    codes, messages, wall_s = [], [], 0.0
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            for cmd in workload.commands:
                argv = command_argv(cmd, args.seed, args.workers, outdir, args.scale)
                err = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except Exception:  # a crash is a failed command, not a failed benchmark
                        code = -1
                        traceback.print_exc()
                wall_s += time.perf_counter() - t0
                codes.append(code)
                messages.append(err.getvalue())
    finally:
        if tracer is not None:
            tracer.restore()
    out = {"codes": codes, "messages": messages, "wall_s": wall_s}
    if tracer is not None:
        from spans import layer_metrics

        tracer.write(outdir / "spans.jsonl")
        out["layers"] = layer_metrics(tracer.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
