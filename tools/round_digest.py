"""Digests of every answer of one benchmark round, to show that a change
leaves every draw, GLS fit and ranking bit-identical.

    python3 tools/round_digest.py [--workloads NAME ...] [--seeds 1 2 3]

Run the copy in each of two checkouts and compare the last lines. For every
workload and seed it sets up the workload's networks and runs
``workloads.run_round`` once, importing ``bench/``'s modules and ``cnma``
from ``src/`` of the checkout the script sits in; it changes neither. It prints one SHA-256 per
call (see ``digest``); then, per call kind (each model kind, ``gls-random``,
``gls-fixed``, ``sucra`` and ``p_scores``), its number of calls and one SHA-256
over its lines (see ``subtotals``), so a change can show which kinds it left
identical; last, the number of calls and one SHA-256 over all the per-call
lines. BLAS is pinned to one thread, as in the benchmark, and ``cnma``'s
convergence warnings are silenced.
"""

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import hashlib
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _dir in ("bench", "src"):
    if str(ROOT / _dir) not in sys.path:
        sys.path.insert(0, str(ROOT / _dir))

import numpy as np

from cnma.bayes import BayesFit
from cnma.freq import FreqFit
from workloads import KINDS, WORKLOADS, Meter, run_round, setup


def digest(result) -> str:
    """SHA-256 over what one call returned: a Bayesian fit's draws; a GLS
    fit's d_hat, cov_d, tau2 and Q; a ranking's treatments and scores; for a
    call that raised (``None``), over nothing. Shapes enter with the bytes."""
    sha = hashlib.sha256()
    if isinstance(result, BayesFit):
        arrays = [result.sample.draws]
    elif isinstance(result, FreqFit):
        arrays = [result.d_hat, result.cov_d, result.tau2, result.Q]
    elif isinstance(result, dict):
        sha.update("\0".join(t.label for t in result).encode())
        arrays = [list(result.values())]
    elif result is None:
        arrays = []
    else:
        raise TypeError(f"no digest for a {type(result).__name__}")
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=float)
        sha.update(repr(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def subtotals(whats, lines) -> list[str]:
    """One line per call kind: the number of ``lines`` whose call was that kind
    (``whats`` names each line's kind) and one SHA-256 over them, hashed as the
    total is. Every kind a round makes is listed, in a fixed order and even
    with no calls; a kind outside that list follows in first appearance."""
    kinds = dict.fromkeys((*KINDS, "gls-random", "gls-fixed", "sucra", "p_scores", *whats))
    out = []
    for kind in kinds:
        mine = [line for what, line in zip(whats, lines) if what == kind]
        out.append(f"{kind}: {len(mine)} calls, subtotal {_sha(mine)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)
    # the short chains warn on every fit; a warning changes no answer
    logging.getLogger("cnma").setLevel(logging.ERROR)

    meter = Meter()
    whats, lines = [], []
    for name in args.workloads:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            for call in run_round(workload, setup(workload, seed), meter):
                line = f"{digest(call.result)} {name} {seed} {call.what}"
                if call.failure:
                    line += f" FAILED {call.failure}"
                print(line)
                whats.append(call.what)
                lines.append(line)
    print("\n".join(subtotals(whats, lines)))
    print(f"{len(lines)} calls, total {_sha(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
