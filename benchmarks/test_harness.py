"""Smoke test of the benchmark harness at a tiny load (``--smoke``).

    python3 -m pytest benchmarks/test_harness.py

Checks that every workload, traced and untraced, ends with one JSON line that
names exactly the metrics and units of BENCHMARK.json, that the deterministic
counters repeat, and that the harness refuses to run without the source tree.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, bench: Path = BENCH):
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1"]
    return subprocess.run(cmd + ["--trace", str(trace), "--smoke"], capture_output=True, text=True, timeout=300, cwd=cwd)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_deterministic_counters_repeat():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from tracer import DETERMINISTIC

    first, second = (_result("oracle_convergence", 1)["metrics"] for _ in range(2))
    assert first["oracle.sturm_counts"]["value"] > 0
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
