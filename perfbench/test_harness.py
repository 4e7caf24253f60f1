"""Smoke test of the benchmark harness on the tiny `smoke` workload.

Not part of tier-1: pytest collects only tests/ unless given a path.  Run
from the repository root:

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(cwd: Path, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("error_rate 0 ") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_untraced_run_emits_every_end_to_end_metric():
    metrics = result_of(bench(ROOT, 0))["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_runs_emit_every_per_layer_metric_with_repeatable_counts():
    first = result_of(bench(ROOT, 1, seed=3))["metrics"]
    second = result_of(bench(ROOT, 1, seed=4))["metrics"]
    assert {n: m["unit"] for n, m in first.items()} == declared("per_layer")
    assert first["intmatrix.diagonalize.calls"]["value"] > 0
    timed = {n for n, m in first.items() if m["unit"] == "s"}
    for name in first.keys() - timed:
        assert first[name]["value"] == second[name]["value"], name


def test_corrupted_digest_raises_error_rate():
    expected = run.load_expected()
    key = run.op_key(run.WORKLOADS["smoke"][1])
    expected[key] = dict(expected[key], sha256="0" * 64)
    result, _ = run.measure("smoke", 1, 0.1, False, expected, ROOT)
    iterations = result["attempted"] // len(run.WORKLOADS["smoke"])
    assert not result["correct"]
    assert result["failed"] == iterations >= 1
    assert result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
