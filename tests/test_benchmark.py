"""The benchmark harness stays runnable from a source checkout."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# seed 0 of jump-scan also checks the certificates against the stored
# digest; pipeline checks the CLI round trip, the verdict and replay of
# every one of the five sample families; iterate checks each profile
# against index_at, the two-step parity and the mean-index sandwich
@pytest.mark.parametrize("workload", ["iterate", "jump-scan", "pipeline"])
def test_benchmark_runs_clean(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0, last


# the tracer sees verification only through the public names
# verify_rounding and verify_jump: a traced jump-scan run must count
# candidates and verification time through them
def test_traced_jump_scan_sees_verification():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jump-scan",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0, last
    metrics = last["metrics"]
    assert metrics["jump.candidates"]["value"] > 0, metrics
    assert metrics["jump.verify_jump_s"]["value"] > 0, metrics


# the tracer wraps IndexProfile.rows on the class: a traced iterate run
# must time the profile rows through it
def test_traced_iterate_sees_profile_rows():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iterate",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0, last
    metrics = last["metrics"]
    assert metrics["iteration.profile_entry_us"]["value"] > 0, metrics
