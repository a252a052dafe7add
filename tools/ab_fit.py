"""In-process A/B timing of one model kind's ``bayes.fit`` between this
checkout and another.

    python3 tools/ab_fit.py OTHER [--workload sim-small] [--seed 3]
                            [--kind unanchored-contrast] [--calls 40]

``OTHER`` is the root of another checkout; its ``src/cnma`` is loaded under
the package name ``cnma_other`` (every import inside the package is
relative), beside this checkout's ``cnma``. The benchmark workload's seeded
networks are set up once with ``bench/`` of this checkout, and each side
rebuilds their studies, network and contrast blocks through its own
``network`` API. The tool then calls the two sides' ``bayes.fit`` in turn,
``--calls`` times each, cycling over the workload's networks with the
workload's chains and seeds, and switching which side goes first every
pair, so that both see the same drift of the machine's speed. Each call is
timed by ``workloads.Meter``, in reference seconds.

It prints each side's median and quartiles, the ratio of the medians
(this / other) and whether every pair of calls drew bit-identical samples.
Process-level numbers of ``bench/run.py`` carry offsets between processes
that run identical code; here both sides share one process. BLAS is pinned
to one thread, as in the benchmark, and ``cnma``'s convergence warnings are
silenced.
"""

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _dir in ("bench", "src"):
    if str(ROOT / _dir) not in sys.path:
        sys.path.insert(0, str(ROOT / _dir))

import numpy as np

import cnma
from workloads import KINDS, N_CHAINS, WORKLOADS, Meter, setup

OTHER_NAME = "cnma_other"


def load_other(root) -> object:
    """The ``cnma`` package of the checkout at ``root``, imported as
    ``cnma_other`` with its ``network``, ``bayes`` and ``mcmc`` modules."""
    path = Path(root).resolve() / "src" / "cnma"
    spec = importlib.util.spec_from_file_location(
        OTHER_NAME, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[OTHER_NAME] = package
    spec.loader.exec_module(package)
    for name in ("network", "bayes", "mcmc"):
        importlib.import_module(f"{OTHER_NAME}.{name}")
    return package


def side_inputs(package, rep, kind, chains):
    """(spec, data, network, config) of one fit of ``kind`` on replicate
    ``rep``, rebuilt from plain values through ``package``'s own classes."""
    net = package.network
    scn = rep.scenario

    def treatment(t):
        return net.Treatment(t.components, t.label)

    studies = tuple(
        net.Study(s.id, tuple(net.ArmRecord(treatment(a.treatment), a.events, a.total)
                              for a in s.arms))
        for s in scn.studies
    )
    network = net.build_network(studies)
    anchor = treatment(scn.anchor) if kind == "anchored-arm" else None
    spec = package.bayes.ModelSpec(kind, "random", anchor)
    if kind == "unanchored-contrast":
        data = tuple(net.arm_to_contrast(s, 0, "cc05") for s in studies)
    else:
        data = studies
    burn_in, keep = chains
    config = package.mcmc.McmcConfig(N_CHAINS, burn_in, keep, rep.mcmc_seed)
    return spec, data, network, config


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return float(q1), float(q2), float(q3)


def run(other_root, workload_name, seed, kind, calls) -> dict:
    """Time ``calls`` fits per side; return each side's times and whether
    every pair of draws was bit-identical."""
    sides = {"this": cnma, "other": load_other(other_root)}
    workload = WORKLOADS[workload_name]
    reps = setup(workload, seed)
    inputs = {
        name: [side_inputs(package, rep, kind, workload.chains[kind]) for rep in reps]
        for name, package in sides.items()
    }
    meter = Meter()
    times = {name: [] for name in sides}
    identical = True
    for i in range(calls):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        draws = {}
        for name in order:
            seconds, fit = meter.time(sides[name].bayes.fit, *inputs[name][i % len(reps)])
            times[name].append(seconds)
            draws[name] = fit.sample.draws
        identical &= np.array_equal(draws["this"], draws["other"])
    return {"times": times, "identical": bool(identical)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="root of the other checkout")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="sim-small")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--kind", choices=KINDS, default="unanchored-contrast")
    parser.add_argument("--calls", type=int, default=40)
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    logging.getLogger("cnma").setLevel(logging.ERROR)

    result = run(args.other, args.workload, args.seed, args.kind, args.calls)
    print(f"{args.kind} on {args.workload}, seed {args.seed}: {args.calls} calls per side")
    medians = {}
    for name, times in result["times"].items():
        q1, medians[name], q3 = quartiles(times)
        print(f"  {name:5s} median {medians[name]:.6f} s, quartiles {q1:.6f} {q3:.6f} "
              "(reference s)")
    print(f"  ratio this/other {medians['this'] / medians['other']:.3f}")
    print(f"  draws bit-identical: {result['identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
