"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Runs every workload once untraced and once traced with ``--smoke`` and
checks what a benchmark run must print.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# the end-to-end figures each workload reports by name, besides the gated ones
REPORTED = {
    "bulk-csv": ["simulate_s", "simulate_par_s", "fit_s", "discriminate_s",
                 "pairs_per_s"],
    "power-sweep": ["trials_per_s", "trial_p50_ms", "trial_p99_ms"],
    "solvers": ["analytic_s", "kinetics_s", "wavefunction_s"],
}
COMMON = ["setup_s", "peak_rss_mb", "fail_ratio"]
SMOKE_PAIRS = 20_000


def run_bench(workload: str, trace: int, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def test_every_named_metric_is_reported():
    named = {*COMMON, *(m for names in REPORTED.values() for m in names)}
    assert named == {
        "setup_s", "simulate_s", "simulate_par_s", "fit_s", "discriminate_s",
        "pairs_per_s", "trials_per_s", "trial_p50_ms", "trial_p99_ms",
        "analytic_s", "kinetics_s", "wavefunction_s", "peak_rss_mb", "fail_ratio"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    proc = run_bench(workload, 0)
    result = _result(proc)
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    printed = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit, *_ = line.split()
            printed[name] = (float(value), unit)
    for name in COMMON + REPORTED[workload]:
        assert name in printed, name
        assert printed[name][1], name
    assert printed["fail_ratio"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    result = _result(run_bench(workload, 1))
    metrics = {name: got["value"] for name, got in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    assert metrics["import.numpy_ms"] > 0 and metrics["import.firstphoton_ms"] > 0
    if workload == "bulk-csv":
        # two simulate runs write, fit and discriminate each read, n_pairs rows
        assert metrics["series.write_rows"] == 2 * SMOKE_PAIRS
        assert metrics["series.read_rows"] == 2 * SMOKE_PAIRS
        assert metrics["montecarlo.pairs"] == 2 * SMOKE_PAIRS
        assert metrics["montecarlo.parallel_speedup"] > 0
        assert 0.9 < metrics["montecarlo.keep_ratio"] < 1.0
        assert metrics["kinetics.steps"] == 0
    elif workload == "power-sweep":
        assert metrics["series.write_rows"] == 0 and metrics["cli.self_s"] == 0
        assert metrics["analytic.calls"] > 0 and metrics["estimation.samples"] > 0
    else:
        assert metrics["kinetics.steps"] == 4000
        assert metrics["wavefunction.grid_points"] == 256 * 256
        assert metrics["montecarlo.pairs"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
