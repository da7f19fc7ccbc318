"""Smoke-size tests of the benchmark itself.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def bench(monkeypatch, capsys):
    """Run the benchmark in-process at the smoke size; return its output lines and result."""
    monkeypatch.setattr(run, "SIZE", "smoke")

    def go(*args):
        assert run.main(["--seconds", "1", *args]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return lines, json.loads(lines[-1])

    return go


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(bench, workload, trace):
    lines, result = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        prefix = f"{metric['name']} = "
        assert any(
            line.startswith(prefix) and f" {metric['unit']} (" in line for line in lines
        ), metric["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sa_scalar", "trace_roundtrip"])
def test_layer_self_times_add_up_to_traced_wall(workload):
    argvs, _ = run.write_configs(workload, 0, "smoke")
    report = run.run_worker(argvs, trace=True)
    metrics = report["trace"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + metrics["experiments.other_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.wall_s"] == pytest.approx(sum(report["walls"]), rel=1e-3)
    assert all(value >= 0 for value in metrics.values())


def test_self_time_charges_nested_and_concurrent_spans():
    # [id, name, start, end, parent, thread, run, steps]
    nested = [
        [1, "cli.main", 0.0, 10.0, None, 1, 0, 0],
        [2, "reporting.write_traces_csv", 2.0, 8.0, 1, 1, 0, 0],
        [3, "process.kronecker_path", 3.0, 5.0, 2, 1, 0, 0],
    ]
    assert dict(tracer.self_times(nested)) == {1: 4.0, 2: 4.0, 3: 2.0}
    pooled = [
        [1, "cli.main", 0.0, 10.0, None, 1, 0, 0],
        [2, "harness.run_ensemble", 1.0, 9.0, 1, 1, 0, 0],
        [3, "harness.factory", 2.0, 6.0, 2, 2, 0, 0],
        [4, "harness.factory", 4.0, 8.0, 2, 3, 0, 0],
    ]
    assert dict(tracer.self_times(pooled)) == {1: 2.0, 2: 2.0, 3: 3.0, 4: 3.0}


def test_wrong_reference_makes_runs_fail(bench, monkeypatch, tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    verdict = reference["smoke"]["sa_vector"]["3"][0]["assertions"][0]
    verdict[1] = not verdict[1]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", path)
    _, result = bench("--workload", "sa_vector", "--seed", "3", "--trace", "1")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["failed_frac"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "sa_scalar",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
