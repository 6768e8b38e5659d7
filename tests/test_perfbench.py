"""Smoke test of the benchmark harness in ``perfbench/``: short traced and untraced runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _perfbench_run(workload, trace=1):
    # StepClock and Tracer wrap library functions by name and call signature, so a change of
    # a library signature can break them without any other test noticing
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout


def test_traced_slam_track_run_is_correct():
    _perfbench_run("slam_track")  # the observer


def test_untraced_slam_track_run_is_correct():
    # a traced run wraps the rate, so the general loop takes it; only an untraced run steps the
    # observer's Cascade in blocks under StepClock's record hook
    _perfbench_run("slam_track", trace=0)


def test_traced_recover_split_run_is_correct():
    _perfbench_run("recover_split")  # slam_discrete and the sphere split
