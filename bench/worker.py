"""Benchmark worker: one fresh interpreter that drives ``qfnet.cli.main``.

    worker.py setup --workload W --seed S --workdir D [--tiny]
        import qfnet.cli, build the workload's inputs, print the monotonic
        clock reading at that moment and exit (run.py times set-up with it).
    worker.py run ... --seconds T --trace 0|1 --result R [--spans P]
        set up, then repeat the workload's operation sequence in a closed
        loop with one client for T seconds and write the result to R.  With
        --trace 1 untraced and traced sequences alternate and the traced
        spans go to P.

Only the standard library is imported before ``qfnet.cli``, so ``python -X
importtime`` on the setup mode attributes numpy and scipy to qfnet.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads


def setup(args: argparse.Namespace):
    """Import the CLI and build the workload's inputs: what setup_s times."""
    import qfnet
    import qfnet.cli

    src = Path(args.src).resolve()
    if src not in Path(qfnet.__file__).resolve().parents:
        raise SystemExit(f"qfnet imported from {qfnet.__file__}, not from {src}")
    return qfnet.cli, workloads.plan(args.workload, args.seed, Path(args.workdir), args.tiny)


def _run_op(cli, op) -> int | None:
    try:
        return cli.main(op.argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an operation that crashes counts as failed
        traceback.print_exc()
        return None


def run_sequence(cli, ops, tracer: tracing.Tracer | None) -> tuple[float, list]:
    """Run every operation once; returns the summed wall time and exit codes."""
    total, codes = 0.0, []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            root = tracer.root(op.label) if tracer is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            with root:
                code = _run_op(cli, op)
            total += time.perf_counter() - t0
            codes.append(code)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return total, codes


def check_all(ops, codes) -> list[str]:
    """One line per operation whose output fails its check."""
    failures = []
    for op, code in zip(ops, codes):
        reason = workloads.check(op, code)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    return failures


def run(args: argparse.Namespace) -> dict:
    cli, ops = setup(args)
    plain, traced, layers, traces = [], [], [], []
    attempted = 0
    failures: list[str] = []
    start = time.monotonic()
    deadline = start + args.seconds
    while True:
        tracer = tracing.Tracer() if args.trace and len(plain) > len(traced) else None
        elapsed, codes = run_sequence(cli, ops, tracer)
        # Checks run outside the timed region and with the tracer removed.
        attempted += len(ops)
        failures += check_all(ops, codes)
        if tracer is None:
            plain.append(elapsed)
        else:
            traced.append(elapsed)
            layers.append(tracing.layer_metrics(
                tracer.spans, tracer.labels, tracer.results, workloads.BUNDLED
            ))
            traces.append({"spans": tracer.spans, "labels": tracer.labels, "solve_s": elapsed})
        # Start another sequence only if it should end nearer the deadline
        # than the last one did, so a run measures about --seconds.
        now = time.monotonic()
        per_sequence = (now - start) / (len(plain) + len(traced))
        if now + per_sequence / 2 >= deadline and (not args.trace or traced):
            break

    import numpy
    import scipy

    result = {
        "solve_s": plain,
        "traced_solve_s": traced,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        result["layers"] = tracing.median_metrics(layers)
        result["layers"]["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        Path(args.spans).write_text(json.dumps(traces), encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args)
        print(f"READY {time.monotonic()!r}", flush=True)
        return 0
    result = run(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
