"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench

Runs every workload's pipeline end to end, untraced and traced, with
``--scale`` shrinking cascade counts and fit budgets, and checks that each
named metric is emitted with its unit and that the outputs pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import SIZES  # noqa: E402


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SIZES))
def test_every_metric_is_emitted(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6, proc.stderr
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_benchmark_json_names_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(SIZES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", "bench/run.py"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "hub30-hidden", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
