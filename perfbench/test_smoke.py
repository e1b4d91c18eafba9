"""Smoke test of the benchmark harness: ``python3 -m pytest perfbench -q``.

Runs every workload, series-digits too, with tiny inputs (``--smoke``),
untraced and traced, and checks the result line against BENCHMARK.json.
Takes about half a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert report["traced_output_matches"] is True
    assert report["machine"]["nproc"] >= 1 and report["input_digest"]
    if trace and workload == "paper":
        # The identity sweeps dominate contikit paper.
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["continuants.busy_s"] > layers["cli.self_s"] + layers["series.busy_s"]
        assert layers["continuants.calls"] > 10 ** 6


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, "paper", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
