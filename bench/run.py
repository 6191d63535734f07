"""qfnet benchmark: end-to-end timing of the CLI and a per-module trace.

    python3 bench/run.py --workload desk-campaign --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts fresh interpreters with
bench/worker.py: one discarded warm-up set-up, SETUP_SAMPLES timed set-ups
(or, with --trace 1, IMPORT_SAMPLES set-ups under ``python -X importtime``),
then one worker that repeats the workload's operation sequence for
--seconds.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  See
bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# The worker is single-threaded; keep numpy's BLAS pool from adding threads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
RUN_LIMIT_S = 170.0
IMPORTED = {
    "import.qfnet_s": "qfnet",
    "import.numpy_s": "numpy",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_special_s": "scipy.special",
}
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in DEFINITION["end_to_end"] + DEFINITION["per_layer"]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts the worker processes of one benchmark run inside the checkout."""

    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})

    def _worker(self, mode: str, *extra: str, python_flags: tuple[str, ...] = ()):
        cmd = [
            sys.executable, *python_flags, str(BENCH / "worker.py"), mode,
            "--workload", self.workload, "--seed", str(self.seed),
            "--workdir", str(self.work / "inputs"), "--src", str(ROOT / "src"),
            *(["--tiny"] if self.tiny else []), *extra,
        ]
        started = time.monotonic()
        timeout = self.deadline - started
        if timeout <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {mode} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return started, proc

    def setup_seconds(self) -> float:
        """One set-up: from starting the interpreter until the inputs exist."""
        started, proc = self._worker("setup")
        ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
        return float(ready[-1].split()[1]) - started

    def import_seconds(self) -> dict[str, float]:
        """Cumulative import times of qfnet.cli and its heavy dependencies."""
        _, proc = self._worker("setup", python_flags=("-X", "importtime"))
        return parse_importtime(proc.stderr)

    def run(self, seconds: float, trace: bool) -> dict:
        result_path = self.work / "result.json"
        spans = ROOT / ".bench_work" / "traces" / f"{self.workload}-seed{self.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        self._worker(
            "run", "--seconds", str(seconds), "--trace", str(int(trace)),
            "--result", str(result_path), "--spans", str(spans),
        )
        return json.loads(result_path.read_text(encoding="utf-8"))


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output.

    A module's time is the summed cumulative time of the outermost entries
    named after it or its submodules.  That covers a package reached through
    a lazy ``from package import module``, which gets no entry of its own
    (scipy.stats), and qfnet, imported as the package and then ``qfnet.cli``.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((name.strip(), depth, int(cumulative) / 1e6))

    def cumulative(module: str) -> float:
        inside = [(d, c) for n, d, c in entries if n == module or n.startswith(module + ".")]
        top = min((d for d, _ in inside), default=0)
        return sum(c for d, c in inside if d == top)

    return {metric: cumulative(module) for metric, module in IMPORTED.items()}


def machine_facts(versions: dict[str, str], env: dict[str, str]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **versions,
        "blas_threads": {var: env[var] for var in THREAD_VARS},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    runner = Runner(workload, seed, tiny)
    try:
        runner.setup_seconds()  # warm-up: bytecode caches and the page cache
        if trace:
            samples = [runner.import_seconds() for _ in range(1 if tiny else IMPORT_SAMPLES)]
            imports = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        else:
            setups = [runner.setup_seconds() for _ in range(1 if tiny else SETUP_SAMPLES)]
        result = runner.run(seconds, trace)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    if trace:
        metrics = {**imports, **result["layers"]}
        note = f"{len(result['traced_solve_s'])} traced and {len(result['solve_s'])} untraced sequences"
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(result["solve_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        note = f"solve_s over {len(result['solve_s'])} sequences, setup_s over {len(setups)} set-ups"
    attempted, failed = result["attempted"], result["failed"]
    print("machine " + json.dumps(machine_facts(result["versions"], runner.env), sort_keys=True))
    print(f"{workload} seed={seed} trace={int(trace)}: {note}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {UNITS[name]}")
    print(f"  {'failed_ops':34s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for reason in result["failures"]:
        print(f"failed: {reason}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qfnet benchmark")
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qfnet" / "cli.py").is_file():
        print(f"no qfnet sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.tiny) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
