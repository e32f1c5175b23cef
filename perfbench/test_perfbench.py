"""The benchmark's own test: the small size of every workload passes every
check on two seeds and reports the metrics BENCHMARK.json lists, traced and
untraced.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOAD_NAMES, load_metrics  # noqa: E402

END_TO_END, PER_LAYER = ({m["name"] for m in metrics} for metrics in load_metrics())


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_small_workload_passes_every_check(workload, seed):
    proc = run_bench(workload, seed, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    assert "check FAIL" not in proc.stdout
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_small_traced_run_reports_every_layer(workload):
    proc = run_bench(workload, 1, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = result["metrics"]
    assert set(metrics) == PER_LAYER
    assert metrics["cifg.loss_and_grads.calls"]["value"] == metrics["nn_core.sgd_step.calls"]["value"]
    assert 0 < metrics["cifg.loss_and_grads.real_positions"]["value"] <= metrics[
        "cifg.loss_and_grads.computed_positions"]["value"]
    assert metrics["trace.overhead"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("desk-quick", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
