"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Checks that each metric BENCHMARK.json names is printed with its unit, that
the outputs pass their check, that spans nest and have non-negative self
time, that computed operation counts repeat exactly between traced runs, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "GFLOP", "MB", "B")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )
    return proc


def result_of(proc) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(result: dict, wanted: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    lines, result = result_of(bench(workload, 0))
    check_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert "check PASS" in lines
    assert any(line.startswith("artifacts digest ") for line in lines)
    assert any(line.startswith("machine nproc=") for line in lines)
    assert any(line.startswith("metric failed_fraction 0 ratio") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    lines, first = result_of(bench(workload, 1))
    check_metrics(first, SPEC["per_layer"])
    values = {name: m["value"] for name, m in first["metrics"].items()}
    for name, value in values.items():
        if name.startswith("network.") and name.endswith(".fwd_ms"):
            assert value > 0, f"{name}: no op attributed to the layer"

    coverage = [line for line in lines if line.startswith("trace coverage ")]
    assert len(coverage) == 1 and 0 < float(coverage[0].split()[2]) <= 1

    span_files = sorted((ROOT / ".bench_work" / workload).glob("spans*.json"))
    assert len(span_files) >= 2
    for path in span_files:
        saved = json.loads(path.read_text())
        assert saved["spans"] and tracing.check_spans(saved["spans"]) == []
        assert saved["self_s"] == pytest.approx(tracing.self_times(saved["spans"]))
        assert min(saved["self_s"]) >= -1e-9

    _, second = result_of(bench(workload, 1))
    for m in SPEC["per_layer"]:
        if m["unit"] in COUNT_UNITS:
            assert second["metrics"][m["name"]]["value"] == values[m["name"]], m["name"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
