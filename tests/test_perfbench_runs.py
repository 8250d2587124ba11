"""Each benchmark workload runs once, briefly, and passes its own checks.

This exercises the API the benchmark calls (``SolverConfig(workers=...)``,
``result.primal.W``, the ``fedmtl bench`` command) and the workloads'
output checks, which the tracer-target tests do not.  The repository's
``perfbench/`` runs from a copy in ``tmp_path`` with ``src/`` linked beside
it, so that its work directory, which it puts next to itself, is there too
and the checkout is left as it was.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tree(path: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in path.rglob("*")} if path.exists() else {}


@pytest.mark.parametrize("workload, trace", [
    ("mocha-wide", 0), ("mocha-many", 0), ("cli-bench", 0), ("cli-bench", 1),
])
def test_workload_runs_and_passes_its_checks(tmp_path, workload, trace):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    before = _tree(ROOT / ".perfbench_work")
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True, run.stderr
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert _tree(ROOT / ".perfbench_work") == before
    assert (tmp_path / ".perfbench_work").is_dir()
    if trace:
        assert (tmp_path / ".perfbench_work" / f"spans-{workload}-seed1.json").is_file()
