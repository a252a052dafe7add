"""In-process A/B timing of model kinds' ``bayes.fit`` between this
checkout and another.

    python3 tools/ab_fit.py OTHER [--workload sim-small] [--seed 3 [4 ...]]
                            [--kind unanchored-contrast [anchored-arm ...]]
                            [--calls 40]

``OTHER`` is the root of another checkout; its ``src/cnma`` is loaded under
the package name ``cnma_other`` (every import inside the package is
relative), beside this checkout's ``cnma``. The benchmark workload's seeded
networks are set up once per ``--seed`` with ``bench/`` of this checkout,
and each side rebuilds their studies, network and contrast blocks through
its own ``network`` API. For each kind and seed the tool then calls the two
sides' ``bayes.fit`` in turn, ``--calls`` times each, cycling over the workload's
networks with the workload's chains and seeds, and switching which side goes
first every pair, so that both see the same drift of the machine's speed.
Each call is timed by ``workloads.Meter``, in reference seconds.

After the timed calls, each side makes two more fits of the first network,
untimed, under ``tracemalloc``: what is still allocated when one returns,
with the fit held, is what it retains, and the smaller of the two is the
side's retained KB per fit. A change that grows it shows here before the
benchmark's ``peak_rss_mb`` does. The draws are most of what a fit retains
and hide changes to the rest, so the side's non-draw KB per fit, retained
less the draws' bytes, is given beside it.

For each kind in turn it prints one line per seed: the ratio of the two
sides' medians (this / other), each side's retained and non-draw KB per
fit, whether every pair of calls drew bit-identical samples, the largest
absolute difference between paired draws (so a change that moves draws by
rounding alone can show it) and whether every pair had equal acceptance
rates in every block. Then one line, naming the kind, sums up its seeds:
each side's median and quartiles over all its calls, their ratio, the worst
max |diff| and whether every acceptance rate was equal.
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
import gc
import importlib
import importlib.util
import logging
import sys
import tracemalloc
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


def retained_kb(fit, inputs) -> tuple[float, float]:
    """KB that ``fit(*inputs)`` leaves allocated while its result is held,
    and that less its draws: the memory traced from just before the call to
    just after it returns and a full collection, which also empties the
    interpreter's free lists."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fit(*inputs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / 1024, (retained - result.sample.draws.nbytes) / 1024


def run(sides, workload_name, seed, kind, calls) -> dict:
    """Time ``calls`` fits per side of ``sides`` (name -> package); return
    each side's times and (retained, non-draw) KB per fit (``retained_kb``),
    whether every pair of draws was bit-identical, the largest absolute
    difference between paired draws and whether every pair's acceptance
    rates were equal."""
    workload = WORKLOADS[workload_name]
    reps = setup(workload, seed)
    inputs = {
        name: [side_inputs(package, rep, kind, workload.chains[kind]) for rep in reps]
        for name, package in sides.items()
    }
    meter = Meter()
    times = {name: [] for name in sides}
    identical, max_diff, same_acceptance = True, 0.0, True
    for i in range(calls):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        samples = {}
        for name in order:
            seconds, fit = meter.time(sides[name].bayes.fit, *inputs[name][i % len(reps)])
            times[name].append(seconds)
            samples[name] = fit.sample
        this, other = samples["this"], samples["other"]
        identical &= np.array_equal(this.draws, other.draws)
        max_diff = max(max_diff, float(np.max(np.abs(this.draws - other.draws))))
        same_acceptance &= this.acceptance == other.acceptance
    # the smaller of two: a side's first traced fit can allocate a one-off
    # buffer, such as numpy's when design.py marks its weights read-only
    retained = {name: min(retained_kb(sides[name].bayes.fit, inputs[name][0]) for _ in range(2))
                for name in sides}
    return {"times": times, "retained_kb": retained, "identical": bool(identical),
            "max_diff": max_diff, "same_acceptance": bool(same_acceptance)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="root of the other checkout")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="sim-small")
    parser.add_argument("--seed", type=int, nargs="+", default=[3])
    parser.add_argument("--kind", choices=KINDS, nargs="+", default=["unanchored-contrast"])
    parser.add_argument("--calls", type=int, default=40)
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    logging.getLogger("cnma").setLevel(logging.ERROR)

    sides = {"this": cnma, "other": load_other(args.other)}
    for kind in args.kind:
        times = {name: [] for name in sides}
        worst, same_acceptance = 0.0, True
        for seed in args.seed:
            result = run(sides, args.workload, seed, kind, args.calls)
            for name in sides:
                times[name] += result["times"][name]
            worst = max(worst, result["max_diff"])
            same_acceptance &= result["same_acceptance"]
            ratio = np.median(result["times"]["this"]) / np.median(result["times"]["other"])
            kb = result["retained_kb"]
            print(f"seed {seed}: ratio this/other {ratio:.3f}, "
                  f"retained KB per fit this {kb['this'][0]:.1f} other {kb['other'][0]:.1f}, "
                  f"non-draw KB this {kb['this'][1]:.1f} other {kb['other'][1]:.1f}, "
                  f"draws bit-identical {result['identical']}, "
                  f"max |diff| {result['max_diff']!r}, "
                  f"acceptance rates equal {result['same_acceptance']}")
        (q1, this, q3), (p1, other, p3) = quartiles(times["this"]), quartiles(times["other"])
        print(f"{kind} on {args.workload}, seeds {' '.join(map(str, args.seed))}, "
              f"{args.calls} calls per seed and side: "
              f"this median {this:.6f} s [{q1:.6f}, {q3:.6f}], "
              f"other {other:.6f} s [{p1:.6f}, {p3:.6f}] (reference s), "
              f"ratio this/other {this / other:.3f}, worst max |diff| {worst!r}, "
              f"acceptance rates equal {same_acceptance}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
