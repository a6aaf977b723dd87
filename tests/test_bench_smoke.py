"""Smoke test of the benchmark harness at its shortest run length: each
workload finishes, passes its own correctness gate (for meanfield_scan, the
golden trajectory hashes) and reports every per-layer metric BENCHMARK.json
declares, so no traced call site is absent. It never gates on timing."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ensemble_ref", "sweep_grid", "meanfield_scan"])
def test_traced_run_is_correct_and_reports_every_layer(workload):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                           workload, "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
