"""A short run of each benchmark workload, so the harness cannot rot
unnoticed: it must finish, judge every op correct (each output matches
its recorded digest and the independent checks), count no op as failed
or refused and report every end-to-end metric.  No timing is asserted."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, tmp_path):
    # A copy, so the run's work files never land in the checkout.
    ignore = shutil.ignore_patterns(".work", ".trace", "__pycache__")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is True, result.stdout
    assert report["failed"] == 0
    assert report["metrics"]["ok_ratio"]["value"] == 1.0  # no op refused
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in declared} <= set(report["metrics"])
