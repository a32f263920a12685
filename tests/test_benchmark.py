"""The benchmark harness stays runnable from a source checkout."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_jump_scan_benchmark_runs_clean():
    # seed 0 also checks the certificates against the stored digest
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jump-scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0, last
