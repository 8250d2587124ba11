"""Each benchmark workload runs once, briefly, and passes its own checks.

This exercises the API the benchmark calls (``SolverConfig(workers=...)``,
``result.primal.W``, the ``fedmtl bench`` command) and the workloads'
output checks, which the tracer-target tests do not.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [
    ("mocha-wide", 0), ("mocha-many", 0), ("cli-bench", 0), ("cli-bench", 1),
])
def test_workload_runs_and_passes_its_checks(workload, trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True, run.stderr
    assert report["failed"] == 0 and report["attempted"] >= 1
