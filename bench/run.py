"""Benchmark for cnma: one workload, seeded, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: it imports ``cnma`` from ``src/`` and reads
the metric names and units from ``BENCHMARK.json``. The workloads are in
``workloads.py``.

``--trace 0`` sets up the workload's networks eleven times, then repeats the
workload's round of calls while the next round still fits in ``--seconds``,
and reports every end-to-end metric as a median over set-ups, rounds or
calls. Times are reference seconds: each call's wall time scaled by the
speed of a fixed probe run next to it (``workloads.Meter``), which takes
out the machine's drift. ``workload_s`` is the sum over a round's calls.

``--trace 1`` runs one untraced round, then one round with every layer
function wrapped in spans (``spans.py``), checks that the two rounds drew
bit-identical samples, and reports every per-layer metric, the tracing
overhead (traced minus untraced ``workload_s``) and the dominant layer.
Span times are put in reference seconds by the mean probe speed over the
traced round.

Every answer passes the correctness gate in ``workloads.py``; a call that
raises or fails the gate counts as failed. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. BLAS is pinned to one thread, so the load is one process.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    from cnma import bayes
except ImportError as exc:
    sys.exit(f"cannot import cnma from {ROOT / 'src'}: {exc}")

import numpy as np

from spans import PARTIAL, Tracer, instrument
from workloads import (
    KINDS, N_CHAINS, PROBE_REF_S, WORKLOADS, Meter, model_inputs, run_round, setup,
)

SETUP_REPEATS = 11
LOGPOST_SECONDS = 0.2


def _median(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def _fits(calls, what):
    return [c for c in calls if c.what == what and not c.failure]


def _ess(fit, prefix: str) -> float:
    """Smallest ESS over the parameters whose name starts with ``prefix``."""
    picked = [e for n, e in zip(fit.sample.names, fit.sample.ess) if n.startswith(prefix)]
    return float(min(picked)) if picked else 0.0


def _ess_per_s(calls, kind) -> float:
    return _median(_ess(c.result, "d[") / c.seconds for c in _fits(calls, kind))


def _round_s(calls) -> float:
    return sum(c.seconds for c in calls)


def untraced(workload, reps, meter, seconds):
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(workload, reps, meter))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(walls) > seconds:
            break
    calls = [c for r in rounds for c in r]
    values = {
        "workload_s": median(_round_s(r) for r in rounds),
        "gls_s": _median(c.seconds for c in _fits(calls, "gls-random")),
    }
    for kind in KINDS:
        values[f"fit_s.{kind}"] = _median(c.seconds for c in _fits(calls, kind))
        values[f"ess_per_s.{kind}"] = _ess_per_s(calls, kind)
    print(f"{len(rounds)} rounds, {median(walls):.3f} wall seconds each (median)")
    return values, calls


def logpost_us(rep, kind) -> float:
    """Median time of one log-posterior evaluation, untraced."""
    spec, data = model_inputs(rep, kind)
    model = bayes.build_model(spec, data, rep.scenario.network)
    x = model.initial_vector()
    times = []
    end = time.perf_counter() + LOGPOST_SECONDS
    while time.perf_counter() < end or len(times) < 5:
        t0 = time.perf_counter()
        model.logpost(x)
        times.append(time.perf_counter() - t0)
    return 1e6 * median(times)


def traced(workload, reps, meter, seed):
    base = run_round(workload, reps, meter)
    tracer = Tracer()
    meter.probes_s.clear()
    with instrument(tracer):
        with tracer.tagged("setup"):
            meter.time(setup, workload, seed)
        calls = run_round(workload, reps, meter, tag=tracer.tagged)
    base_s, traced_s = _round_s(base), _round_s(calls)
    # span times are wall seconds; the probes' mean speed over the traced run
    # puts them in reference seconds, like the calls
    scale = PROBE_REF_S * len(meter.probes_s) / sum(meter.probes_s)

    def draws(round_calls):
        return [c.result.sample.draws for c in round_calls if c.what in KINDS and not c.failure]

    identical = len(draws(base)) == len(draws(calls)) and all(
        np.array_equal(a, b) for a, b in zip(draws(base), draws(calls))
    )
    print(f"traced round {traced_s:.3f} s, untraced {base_s:.3f} s, draws identical: {identical}")

    tags = {"", *KINDS}  # the round, not the traced set-up

    def total(*names, tags=tags):
        stats = tracer.total(*names, tags=tags)
        stats.total_s *= scale
        stats.self_s *= scale
        return stats

    def per_call(stats, field="total_s"):
        return getattr(stats, field) / stats.calls if stats.calls else 0.0

    v = {}
    for kind in KINDS:
        burn_in, keep = workload.chains[kind]
        fits = [c.result for c in _fits(calls, kind)]
        sweeps = sum(c.what == kind for c in calls) * N_CHAINS * (burn_in + keep)
        partial = total(PARTIAL, tags={kind})
        v[f"ess_per_s.{kind}"] = _ess_per_s(base, kind)
        v[f"bayes.logpost_us.{kind}"] = scale * logpost_us(reps[0], kind)
        v[f"bayes.build_model_s.{kind}"] = per_call(total("bayes.build_model", tags={kind}))
        v[f"bayes.fit.self_s.{kind}"] = per_call(total("bayes.fit", tags={kind}), "self_s")
        v[f"mcmc.sweep_us.{kind}"] = 1e6 * total("mcmc.run_chains", tags={kind}).total_s / sweeps
        v[f"mcmc.partial.calls_per_sweep.{kind}"] = partial.calls / sweeps
        v[f"mcmc.partial_us.{kind}"] = 1e6 * per_call(partial)
        families = {}
        for fit in fits:
            for block, rate in fit.sample.acceptance.items():
                families.setdefault(block.split("[")[0], []).append(rate)
        for family, rates in families.items():
            v[f"mcmc.accept.{family}.{kind}"] = float(np.mean(rates))
        v[f"mcmc.ess_per_draw.d.{kind}"] = _median(_ess(f, "d[") / (N_CHAINS * keep) for f in fits)
        v[f"mcmc.ess_per_draw.sigma.{kind}"] = _median(
            _ess(f, "sigma") / (N_CHAINS * keep) for f in fits
        )
        v[f"mcmc.max_rhat.{kind}"] = _median(f.max_rhat for f in fits)

    for name in ("mvn_logpdf", "chol", "pinv"):
        stats = total(f"numerics.{name}")
        v[f"numerics.{name}.calls"] = stats.calls
        v[f"numerics.{name}.self_s"] = stats.self_s
    v["freq.estimate_tau2_s"] = per_call(total("freq.estimate_tau2"))
    v["freq.gls.self_s"] = per_call(total("freq.gls_fit"), "self_s")
    n = sum(b.y_star.size for b in reps[0].blocks)
    v["freq.n_contrasts"] = n
    v["freq.w_bytes"] = 8 * n * n
    diag = total("mcmc.rhat", "mcmc.ess")
    v["mcmc.diag.calls"] = diag.calls
    v["mcmc.diag_s"] = diag.total_s
    ranking = total("effects.sucra", "freq.p_scores", "effects.derive_relative_effect")
    v["effects.calls"] = ranking.calls
    v["effects.s"] = ranking.total_s
    v["network.build_network_s"] = per_call(total("network.build_network", tags={"setup"}))
    v["network.arm_to_contrast_us"] = 1e6 * per_call(total("network.arm_to_contrast", tags={"setup"}))

    layers = tracer.by_layer(tags)
    for stats in layers.values():
        stats.total_s *= scale
        stats.self_s *= scale
    v["design.calls"] = layers["design"].calls
    for layer, stats in layers.items():
        v[f"{layer}.self_s"] = stats.self_s
    v["trace.overhead_s"] = traced_s - base_s

    busy = sum(s.self_s for s in layers.values())
    for layer, stats in sorted(layers.items(), key=lambda kv: -kv[1].self_s):
        print(f"  {layer:9s} self {stats.self_s:9.4f} s  {stats.calls:9d} calls")
    dominant = max(layers, key=lambda layer: layers[layer].self_s)
    print(
        f"dominant layer: {dominant} "
        f"({100 * layers[dominant].self_s / busy:.0f}% of traced self time)"
    )
    print(f"tracing overhead: {traced_s - base_s:.3f} s")
    return v, base + calls, identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]

    meter = Meter()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, reps = meter.time(setup, workload, args.seed)
        setup_times.append(seconds)

    if args.trace:
        values, calls, identical = traced(workload, reps, meter, args.seed)
        wanted = spec["per_layer"]
    else:
        values, calls = untraced(workload, reps, meter, args.seconds)
        identical = True
        values["setup_s"] = median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]

    failures = [c for c in calls if c.failure]
    for call in failures:
        print(f"FAILED {call.what}: {call.failure}")
    for m in wanted:
        print(f"  {m['name']:40s} {values[m['name']]:14.6g} {m['unit']}")
    result = {
        "correct": identical and not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
