"""The benchmark's workloads, the round of calls each makes into ``cnma``, and
the correctness gate applied to every answer.

Every workload runs every fitting path (the three Bayesian kinds, GLS in
both effects modes, and a ranking), so every metric exists on every
workload; the shape of the network and the chain lengths decide which layer
does most of the work. A run measures for tens of seconds, so chains are
about as short as the correctness gate allows on every seed tried (1-12):
the benchmark times the sampler's work per sweep and the per-fit fixed
costs, not a converged analysis.
"""

from __future__ import annotations

import contextlib
import signal
import time
from dataclasses import dataclass

import numpy as np

from cnma import bayes, effects, freq, network
from cnma.errors import CnmaError
from cnma.mcmc import McmcConfig

from synth import Scenario, simulate

KINDS = ("anchored-arm", "unanchored-arm", "unanchored-contrast")
N_CHAINS = 2

# a GLS fixed-effects contrast may sit this many of its SEs from the truth
GLS_Z = 5.0
# a posterior mean may sit this many posterior SDs from the GLS estimate
BAYES_Z = 4.0


@dataclass(frozen=True)
class Workload:
    n_studies: int
    multi_frac: float
    four_arm_frac: float
    tau: float
    arm_size: int
    replicates: int  # independent networks per round
    gls_repeats: int  # gls_fit calls per effects mode per network
    chains: dict  # model kind -> (burn_in, keep) per chain
    sucra_kinds: tuple  # kinds whose draws are ranked by SUCRA
    p_scores: bool


WORKLOADS = {
    # many three- and four-arm studies: one Cholesky-based mvn_logpdf per
    # multi-arm study in every contrast log posterior, and dense n x n GLS
    # weight matrices (n ~ 500 contrasts)
    "contrast-320": Workload(
        n_studies=320, multi_frac=0.4, four_arm_frac=0.25, tau=0.2, arm_size=150,
        replicates=1, gls_repeats=5,
        chains={"unanchored-contrast": (40, 40), "anchored-arm": (150, 20),
                "unanchored-arm": (150, 20)},
        sucra_kinds=(), p_scores=True,
    ),
    # mostly two-arm studies: the arm models' sweep makes 4S+6 scalar
    # partial calls, and sigma mixes poorly
    "arm-re-160": Workload(
        n_studies=160, multi_frac=0.2, four_arm_frac=0.0, tau=0.2, arm_size=150,
        replicates=1, gls_repeats=1,
        chains={"anchored-arm": (150, 150), "unanchored-arm": (150, 150),
                "unanchored-contrast": (40, 40)},
        sucra_kinds=("anchored-arm", "unanchored-arm"), p_scores=False,
    ),
    # simulation-study traffic: many small networks, every kind, short
    # chains, so per-fit fixed costs weigh more than on large networks
    "sim-small": Workload(
        n_studies=15, multi_frac=0.2, four_arm_frac=0.0, tau=0.3, arm_size=100,
        replicates=8, gls_repeats=1,
        chains={kind: (100, 50) for kind in KINDS},
        sucra_kinds=KINDS, p_scores=True,
    ),
}


@dataclass(frozen=True)
class Replicate:
    scenario: Scenario
    blocks: tuple
    mcmc_seed: int


def setup(workload: Workload, seed: int) -> list[Replicate]:
    """Generate the workload's networks and their contrast blocks."""
    reps = []
    for r in range(workload.replicates):
        scenario = simulate(
            [seed, r], workload.n_studies, workload.multi_frac,
            workload.four_arm_frac, workload.tau, workload.arm_size,
        )
        blocks = tuple(network.arm_to_contrast(s, 0, "cc05") for s in scenario.studies)
        reps.append(Replicate(scenario, blocks, seed * 1000 + r))
    return reps


def model_inputs(rep: Replicate, kind: str):
    """The random-effects model spec of ``kind`` and the data it fits."""
    scn = rep.scenario
    spec = bayes.ModelSpec(kind, "random", scn.anchor if kind == "anchored-arm" else None)
    return spec, (rep.blocks if kind == "unanchored-contrast" else scn.studies)


# the reference speed: the probe below takes this long on a reference machine
PROBE_REF_S = 1e-3
PROBE_EVERY_S = 0.1
_PROBE_X = np.arange(16.0)


def _probe_s() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy calls,
    the kind of work cnma's fits are made of. It calls nothing in cnma."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(400):
        y = _PROBE_X * 1.0001 + i
        acc += float(y @ _PROBE_X) + len({i: i})
    return time.perf_counter() - start


class Meter:
    """Times calls in reference seconds.

    The machine's speed drifts by tens of percent within seconds when other
    work shares its cores, so a call's wall time is scaled by PROBE_REF_S
    over the mean time of the probes run next to it: one just before, one
    just after, and one every PROBE_EVERY_S during the call, from a SIGALRM
    handler whose own time is taken out of the call's. The handler touches
    nothing the call uses, so the call's results are unchanged. A change to
    cnma moves the call's time and not the probe's, so it shows in full.
    """

    def __init__(self):
        self._last_probe_s = _probe_s()
        self.probes_s: list[float] = []  # every probe taken by time(); callers may clear it

    def time(self, fn, *args):
        """(reference seconds, result) of ``fn(*args)``; an exception from
        ``fn`` propagates with no time reported."""
        probes = [self._last_probe_s]
        handler_s = 0.0

        def probe(signum, frame):
            nonlocal handler_s
            start = time.perf_counter()
            probes.append(_probe_s())
            handler_s += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            start = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - start - handler_s
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._last_probe_s = _probe_s()
        probes.append(self._last_probe_s)
        self.probes_s.extend(probes[1:])
        return wall * PROBE_REF_S / (sum(probes) / len(probes)), result


@dataclass
class Call:
    """One call into cnma: what it was, how long it took, what it returned."""

    what: str  # a model kind, "gls-random", "gls-fixed", "p_scores" or "sucra"
    seconds: float  # reference seconds (see Meter)
    result: object = None
    failure: str = ""


def _timed(meter: Meter, what, fn, *args):
    try:
        seconds, result = meter.time(fn, *args)
    except CnmaError as exc:
        return Call(what, 0.0, failure=f"{type(exc).__name__}: {exc}")
    return Call(what, seconds, result)


def run_round(workload: Workload, reps, meter: Meter, tag=lambda kind: contextlib.nullcontext()):
    """Make every call of one round and gate each answer.

    ``tag(kind)`` is entered around each Bayesian fit, so a tracer can
    attribute its spans to the model kind.
    """
    calls = []
    for rep in reps:
        scn = rep.scenario
        gls = {}
        for _ in range(workload.gls_repeats):
            for mode in ("random", "fixed"):
                call = _timed(meter, f"gls-{mode}", freq.gls_fit, rep.blocks, scn.network, mode)
                if not call.failure and mode == "fixed":
                    call.failure = gate_gls(call.result, scn) or ""
                calls.append(call)
                gls[mode] = call
        reference = gls["random"]

        for kind, (burn_in, keep) in workload.chains.items():
            spec, data = model_inputs(rep, kind)
            config = McmcConfig(n_chains=N_CHAINS, burn_in=burn_in, keep=keep, seed=rep.mcmc_seed)
            with tag(kind):
                call = _timed(meter, kind, bayes.fit, spec, data, scn.network, config)
            if not call.failure:
                if reference.failure:
                    call.failure = "no GLS reference"
                else:
                    call.failure = gate_bayes(call.result, reference.result, scn) or ""
            calls.append(call)
            if kind in workload.sucra_kinds and not call.failure:
                treatments = scn.network.treatments
                calls.append(_timed(
                    meter, "sucra", effects.sucra,
                    call.result.treatment_effect_draws(treatments), treatments,
                ))

        if workload.p_scores and not reference.failure:
            calls.append(_timed(
                meter, "p_scores", freq.p_scores, reference.result, scn.network.treatments
            ))
    return calls


def _contrasts(scn: Scenario):
    return [t for t in scn.network.treatments if t != scn.anchor]


def gate_gls(fit, scn: Scenario) -> str | None:
    """Each fixed-effects contrast versus the anchor lies within GLS_Z SEs of the truth."""
    for t in _contrasts(scn):
        est = effects.derive_relative_effect(
            fit.d_hat, fit.cov_d, scn.anchor, t, scn.network.components
        )
        if not abs(est.point - scn.true_contrasts[t]) <= GLS_Z * est.se:
            return (
                f"GLS {t.label}: {est.point:.4f} vs truth "
                f"{scn.true_contrasts[t]:.4f} (se {est.se:.4f})"
            )
    return None


def gate_bayes(fit, reference, scn: Scenario) -> str | None:
    """Draws are finite, and each posterior mean contrast versus the anchor
    lies within BAYES_Z posterior SDs of the GLS estimate ``reference``.

    The anchored kind fixes the anchor's effect at zero, so its reference is
    the GLS estimate conditioned on that: the constrained least-squares
    solution, which is the Gaussian conditional of (d_hat, cov_d).
    """
    if not np.all(np.isfinite(fit.sample.draws)):
        return "non-finite draws"
    comps = scn.network.components
    ref_d, ref_cov = reference.d_hat, reference.cov_d
    if fit.spec.kind == "anchored-arm":
        at = comps.index(scn.anchor.components[0])
        col = ref_cov[:, at]
        ref_d = ref_d - col * ref_d[at] / col[at]
        ref_cov = ref_cov - np.outer(col, col) / col[at]
    draws = fit.component_effect_draws()
    mean = draws.mean(axis=0)
    for t in _contrasts(scn):
        post = effects.derive_relative_effect(mean, draws, scn.anchor, t, comps)
        ref = effects.derive_relative_effect(ref_d, ref_cov, scn.anchor, t, comps)
        if not abs(post.point - ref.point) <= BAYES_Z * post.se:
            return (
                f"{fit.spec.kind} {t.label}: posterior {post.point:.4f} vs GLS "
                f"{ref.point:.4f} (posterior sd {post.se:.4f})"
            )
    return None
