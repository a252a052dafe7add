"""Smoke tests of the benchmark's command line: a run of the sim-small workload
must pass its own correctness gate with no failed call, both traced (every
answer gated, traced and untraced draws bit-identical) and untraced (the
path that reports the end-to-end metrics)."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_sim_small(trace: int) -> dict:
    """The last line of a one-second sim-small run, parsed, after checking
    that it passed its gate."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-small",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result


def test_traced_sim_small_run_is_correct():
    run_sim_small(trace=1)


def test_untraced_sim_small_run_reports_every_end_to_end_metric():
    metrics = run_sim_small(trace=0)["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]
