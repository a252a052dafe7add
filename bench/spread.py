"""Seed-spread report: how much each metric moves from one workload seed to the next.

    python3 bench/spread.py [--seeds 5] [--workload NAME ...] [--per-layer]

Run it from the repository root. For each workload it runs ``run.py`` once
per seed (1..N) for ``run_seconds`` each, one process at a time, and prints
for every end-to-end metric its median and its spread: the distance between
the first and third quartiles of the per-seed values (as
``statistics.quantiles(values, n=4)`` gives them) as a share of their median.
A spread within a third of the metric's bound is steady. An ``ess_per_s.*``
metric whose spread exceeds its bound belongs in the per-layer list, and the
report says so. With ``--per-layer`` the traced runs are made too and the
per-layer metrics' spreads are printed, without bounds.

The exit code is 1 when a run fails or is incorrect, or when an end-to-end
metric other than ``setup_s`` spreads wider than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float]:
    """(median, interquartile distance / median) of the values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def report(results, metrics, bounded: bool) -> bool:
    """Print one line per metric; return whether every bounded spread holds."""
    ok = True
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med, sp = spread(values)
        line = f"  {m['name']:44s} median {med:12.6g} {m['unit']:6s} spread {sp:7.3f}"
        if bounded:
            bound = m["bound"]
            if sp <= bound / 3:
                verdict = "steady"
            elif sp <= bound:
                verdict = "within bound, above a third of it"
            else:
                verdict = "WIDER THAN BOUND"
                if m["name"].startswith("ess_per_s."):
                    verdict += ": move to per_layer"
                elif m["name"] != "setup_s":
                    ok = False
            line += f"  bound {bound:.2f}  {verdict}"
        elif m["name"].startswith("ess_per_s."):
            line += "  (per-layer: moved from end_to_end, spread wider than its bound)"
        print(line)
        print("      " + " ".join(f"{v:.6g}" for v in values))
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args(argv)
    if args.seeds < 5:
        parser.error("the spread needs at least 5 seeds")

    ok = True
    for workload in args.workload or names:
        modes = [(0, spec["end_to_end"], True)]
        if args.per_layer:
            modes.append((1, spec["per_layer"], False))
        for trace, metrics, bounded in modes:
            results = [
                run(workload, seed, spec["run_seconds"], trace)
                for seed in range(1, args.seeds + 1)
            ]
            bad = [r for r in results if not r["correct"] or r["failed"]]
            print(
                f"{workload} trace {trace}: {args.seeds} seeds, "
                f"{sum(r['attempted'] for r in results)} calls, "
                f"{sum(r['failed'] for r in results)} failed, {len(bad)} incorrect runs"
            )
            ok = report(results, metrics, bounded) and ok and not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
