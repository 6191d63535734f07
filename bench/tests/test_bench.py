"""Tests of the benchmark itself.  Run: python -m pytest bench/tests"""

import csv
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import run
import tracer as tracing
import worker
import workloads

BENCH = Path(run.__file__).resolve().parent
DEFINITION = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cli():
    import qfnet.cli

    return qfnet.cli


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "qfnet" or name.startswith("qfnet.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def _run_tiny(cli, workload, tmp_path, tracer=None):
    ops = workloads.plan(workload, 7, tmp_path, tiny=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        elapsed, codes = worker.run_sequence(cli, ops, tracer)
    return ops, elapsed, codes


def test_tracer_restores_every_binding(cli, tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import qfnet.optimizer
        import qfnet.stats

        # the direct import in optimizer and the defining module are both wrapped
        assert qfnet.optimizer.best_threshold is not before[("qfnet.optimizer", "best_threshold")]
        assert qfnet.stats.best_threshold is not before[("qfnet.stats", "best_threshold")]
    finally:
        tracer.uninstall()
    _run_tiny(cli, "desk-optimize", tmp_path, tracing.Tracer())
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_fit_in_traced_solve(cli, tmp_path, workload):
    tracer = tracing.Tracer()
    ops, elapsed, codes = _run_tiny(cli, workload, tmp_path, tracer)
    assert codes == [0] * len(ops)
    own = tracing.self_times(tracer.spans)
    layer_self = [s for s, span in zip(own, tracer.spans) if span[0] != tracing.ROOT]
    assert layer_self and min(layer_self) >= -1e-9
    assert sum(layer_self) <= elapsed
    metrics = tracing.layer_metrics(tracer.spans, tracer.labels, tracer.results)
    self_keys = [k for k in metrics if k.endswith(".self_s") or k == "stats.tail_self_s"]
    assert sum(metrics[k] for k in self_keys) <= elapsed


def _corrupt_reproduce(path: Path) -> None:
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    for row in rows:
        if row and row[0] == "q_r":
            row[2] = str(float(row[2]) * 1.5)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")


def _corrupt_json(key: str, field: str, value) -> callable:
    def corrupt(path: Path) -> None:
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[key][field] = value
        path.write_text(json.dumps(doc), encoding="utf-8")

    return corrupt


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("audit-bundled", _corrupt_reproduce),
        ("desk-optimize", _corrupt_json("result", "per_run", [
            {"alphas": [1.0, 1.0], "pairing": [1, 2], "thresholds": [1], "encoding": "two-bit"}
        ])),
        ("desk-campaign", _corrupt_json("report", "empirical_correct_rate", 0.5)),
    ],
)
def test_corrupted_output_is_a_failed_operation(cli, tmp_path, workload, corrupt):
    ops, _, codes = _run_tiny(cli, workload, tmp_path)
    assert worker.check_all(ops, codes) == []
    corrupt(ops[0].out)
    failures = worker.check_all(ops, codes)
    assert len(failures) == 1 and failures[0].startswith(ops[0].label)
    assert len(worker.check_all(ops, [None] + codes[1:])) == 1


def test_inputs_depend_on_the_seed_only(tmp_path):
    a = [op.expect for op in workloads.plan("desk-optimize", 3, tmp_path / "a")]
    b = [op.expect for op in workloads.plan("desk-optimize", 3, tmp_path / "b")]
    c = [op.expect for op in workloads.plan("desk-optimize", 4, tmp_path / "c")]
    assert a == b != c


def test_importtime_counts_lazily_imported_packages():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |      20000 | qfnet",
        "import time:       100 |        100 |       scipy.stats._a",
        "import time:       200 |       3000 |       scipy.stats._b",
        "import time:        50 |        400 |         scipy.special",
        "import time:       300 |       5000 |     qfnet.stats",
        "import time:       700 |     900000 | qfnet.cli",
    ])
    out = run.parse_importtime(stderr)
    assert out["import.qfnet_s"] == pytest.approx(0.92)
    assert out["import.scipy_stats_s"] == pytest.approx(0.0031)
    assert out["import.scipy_special_s"] == pytest.approx(0.0004)
    assert out["import.numpy_s"] == 0.0


def _bench(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric_and_no_failures(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = DEFINITION["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "desk-campaign", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
