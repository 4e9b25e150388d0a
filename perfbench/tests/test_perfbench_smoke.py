"""Smoke test of the benchmark: every workload at n = 64 in both trace modes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("fft.calls", "profile.cg_iterations", "profile.coercivity_applies",
          "evolution.steps", "evolution.records", "shapes.cells")


def run_smoke(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, json.loads(detail_line)["ops"][0]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1

    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]

    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert abs(metrics["self_time_coverage"] - 1.0) <= 0.1
        per_op = [op["layers"] for op in json.loads(detail_line)["ops"] if "layers" in op]
        for name in COUNTS:
            assert {layers[name] for layers in per_op} == {metrics[name]}, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_smoke("verify-disk-n256", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
