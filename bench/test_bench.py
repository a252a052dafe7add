"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest bench -q"""

import dataclasses

import numpy as np
import pytest

import cnma.bayes
import cnma.mcmc
import spans
from cnma import bayes, design, freq
from cnma.mcmc import McmcConfig
from spans import PARTIAL, Tracer, instrument
from synth import simulate
from workloads import Meter, Workload, gate_bayes, gate_gls, model_inputs, run_round, setup

TINY = Workload(
    n_studies=12, multi_frac=0.25, four_arm_frac=0.0, tau=0.2, arm_size=100,
    replicates=1, gls_repeats=1,
    chains={"anchored-arm": (20, 10), "unanchored-arm": (20, 10),
            "unanchored-contrast": (20, 10)},
    sucra_kinds=(), p_scores=True,
)


class TestGenerator:
    def test_same_seed_same_network(self):
        a = simulate(5, 40, 0.3, 0.5)
        b = simulate(5, 40, 0.3, 0.5)
        assert a.studies == b.studies
        assert np.array_equal(a.d_true, b.d_true)
        assert a.true_contrasts == b.true_contrasts

    def test_other_seed_other_network(self):
        assert simulate(5, 40, 0.3).studies != simulate(6, 40, 0.3).studies

    def test_shape_is_fixed_and_network_identified(self):
        scn = simulate(3, 40, 0.3, 0.5)
        arms = sorted(s.n_arms for s in scn.studies)
        assert arms.count(2) == 28 and arms.count(3) == 6 and arms.count(4) == 6
        assert scn.network.connected
        assert np.linalg.matrix_rank(design.stack_X(scn.network)) == 4
        assert scn.true_contrasts[scn.anchor] == 0.0
        for study in scn.studies:
            assert scn.anchor not in study.treatments[1:]


def _scenario_and_gls():
    rep = setup(TINY, 11)[0]
    return rep, {
        mode: freq.gls_fit(rep.blocks, rep.scenario.network, mode)
        for mode in ("fixed", "random")
    }


class TestGate:
    def test_gls_shifted_estimate_rejected(self):
        rep, gls = _scenario_and_gls()
        scn = rep.scenario
        assert gate_gls(gls["fixed"], scn) is None
        b = scn.network.components.index("B")
        shift = np.zeros(4)
        shift[b] = 10 * np.sqrt(gls["fixed"].cov_d[b, b]) + 1.0
        shifted = dataclasses.replace(gls["fixed"], d_hat=gls["fixed"].d_hat + shift)
        assert "GLS" in gate_gls(shifted, scn)

    @pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-contrast"])
    def test_posterior_shifted_estimate_rejected(self, kind):
        rep, gls = _scenario_and_gls()
        scn = rep.scenario
        spec, data = model_inputs(rep, kind)
        fit = bayes.fit(spec, data, scn.network, McmcConfig(burn_in=300, keep=300, seed=4))
        assert gate_bayes(fit, gls["random"], scn) is None

        col = fit.names.index("d[B]")
        draws = fit.sample.draws.copy()
        draws[..., col] += 10 * draws[..., col].std() + 1.0
        shifted = dataclasses.replace(fit, sample=dataclasses.replace(fit.sample, draws=draws))
        assert kind in gate_bayes(shifted, gls["random"], scn)

        draws[0, 0, col] = np.nan
        broken = dataclasses.replace(fit, sample=dataclasses.replace(fit.sample, draws=draws))
        assert gate_bayes(broken, gls["random"], scn) == "non-finite draws"


class TestTracer:
    def test_self_time_on_toy_span_tree(self):
        # root [0, 10] > a [1, 4] > g [2, 3]; root > b [5, 9]
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.enter("mcmc.root")
        tracer.enter("bayes.a")
        with tracer.tagged("k"):
            tracer.enter("numerics.g")
            tracer.exit()
        tracer.exit()
        tracer.enter("bayes.b")
        tracer.exit()
        tracer.exit()

        assert tracer.total("mcmc.root").self_s == 3.0
        assert tracer.total("mcmc.root").total_s == 10.0
        assert tracer.total("bayes.a").self_s == 2.0
        assert tracer.total("numerics.g", tags={"k"}).self_s == 1.0
        assert tracer.total("numerics.g", tags={""}).calls == 0
        assert tracer.total("bayes.b").self_s == 4.0
        layers = tracer.by_layer()
        assert layers["bayes"].self_s == 6.0 and layers["bayes"].calls == 2
        assert sum(s.self_s for s in layers.values()) == 10.0

    def test_missing_function_counts_zero(self, monkeypatch):
        monkeypatch.setattr(
            spans, "PRIVATE_STAGES", spans.PRIVATE_STAGES + (("bayes", None, "_gone"),)
        )
        tracer = Tracer()
        with instrument(tracer):
            pass
        assert tracer.total("bayes._gone").calls == 0

    def test_traced_draws_identical_and_counts_exact(self):
        reps = setup(TINY, 2)
        original = cnma.mcmc.run_chains
        base = run_round(TINY, reps, Meter())
        tracer = Tracer()
        with instrument(tracer):
            assert cnma.bayes.run_chains is cnma.mcmc.run_chains
            assert cnma.mcmc.run_chains is not original
            traced = run_round(TINY, reps, Meter(), tag=tracer.tagged)
        assert cnma.mcmc.run_chains is original and cnma.bayes.run_chains is original

        fits = [(a.result, b.result) for a, b in zip(base, traced) if hasattr(a.result, "sample")]
        assert len(fits) == 3
        for a, b in fits:
            assert np.array_equal(a.sample.draws, b.sample.draws)

        n_studies = TINY.n_studies
        sweeps = 2 * 30
        assert tracer.total(PARTIAL, tags={"anchored-arm"}).calls == sweeps * (4 * n_studies + 6)
        assert tracer.total(PARTIAL, tags={"unanchored-contrast"}).calls == sweeps * 4
        assert tracer.total("bayes.fit").calls == 3
        assert tracer.total("freq.gls_fit").calls == 2
