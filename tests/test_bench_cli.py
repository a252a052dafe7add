"""Smoke test of the benchmark's command line: one traced run of the
sim-small workload must pass its own correctness gate (every answer gated,
traced and untraced draws bit-identical) with no failed call."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sim_small_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-small",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
