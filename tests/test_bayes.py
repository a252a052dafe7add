import dataclasses
import gc
import itertools
import logging
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit, gammaln
from scipy.stats import binom, norm

from cnma import bayes, design, mcmc
from cnma.design import ContrastDesign, incidence_matrix, stack_X
from cnma.effects import contrast_vector, derive_relative_effect, sucra
from cnma.errors import (
    CnmaError,
    EmptyNetwork,
    NotIdentifiable,
    UnknownAnchor,
)
from cnma.freq import gls_fit, p_scores
from cnma.mcmc import McmcConfig
from cnma.network import (
    ArmRecord,
    Network,
    Study,
    _arm_first,
    arm_to_contrast,
    build_network,
    parse_treatment,
)
from dense import (
    arm_study_partials,
    build_Sigma_star,
    contrast_design_arrays,
    contrast_marginals,
    contrast_posterior_moments,
    mvn_logpdf,
    stacked_covariance,
)
from test_freq import arm_networks
from test_mcmc import reference_ess, reference_rhat

KINDS = ("anchored-arm", "unanchored-arm", "unanchored-contrast")
ANCHOR = parse_treatment("A")
DESIGNS = (
    ("A", "B"), ("A", "C"), ("A", "D"), ("A", "B+C"), ("B", "C+D"), ("C", "B+D"),
    ("A", "B", "C+D"), ("D", "B+C+D"), ("A", "C", "B+C"), ("B", "D"), ("A", "B+C+D"),
    ("C", "D", "B+D"),
)


EFFECT = {"A": 0.0, "B": 0.4, "C": -0.3, "D": 0.2}


def additive_studies(effect, scale=1):
    """Twelve studies of ``DESIGNS`` on four components, additive in ``effect``,
    with A as baseline arm wherever it appears and ``scale`` times 100-199
    subjects per arm."""
    rng = np.random.default_rng(20)
    out = []
    for i, labels in enumerate(DESIGNS):
        treatments = [parse_treatment(lab) for lab in labels]
        level = np.array([sum(effect[c] for c in t.components) for t in treatments])
        totals = scale * rng.integers(100, 200, size=len(treatments))
        events = rng.binomial(totals, 1.0 / (1.0 + np.exp(0.8 - level)))
        arms = zip(treatments, events.tolist(), totals.tolist())
        out.append(Study(id=f"s{i}", arms=tuple(ArmRecord(*arm) for arm in arms)))
    return tuple(out)


@pytest.fixture(scope="module")
def studies():
    """The twelve studies, additive on the anchor A (its own effect is 0)."""
    return additive_studies(EFFECT)


@pytest.fixture(scope="module")
def network(studies):
    net = build_network(studies)
    assert net.connected and np.linalg.matrix_rank(stack_X(net)) == net.n_components
    return net


@pytest.fixture(scope="module")
def wide_studies(studies):
    """The twelve studies and two of four arms, one with a zero cell and the
    anchor A as its second arm, one without A."""
    four_arm = (
        ("s12", (("B", 50, 120), ("A", 0, 110), ("C+D", 35, 130), ("B+C", 47, 125))),
        ("s13", (("D", 30, 100), ("C", 28, 105), ("B+D", 41, 98), ("B+C+D", 44, 101))),
    )
    return studies + tuple(
        Study(id=i, arms=tuple(ArmRecord(parse_treatment(t), r, n) for t, r, n in arms))
        for i, arms in four_arm
    )


def inputs(kind, studies, effects="random"):
    spec = bayes.ModelSpec(kind, effects, ANCHOR if kind == "anchored-arm" else None)
    if kind == "unanchored-contrast":
        return spec, [arm_to_contrast(s, 0, "cc05") for s in studies]
    return spec, list(studies)


@pytest.mark.parametrize("effects", ["fixed", "random"])
@pytest.mark.parametrize("kind", KINDS)
def test_same_seed_bit_identical_draws(kind, effects, studies, network):
    spec, data = inputs(kind, studies, effects)
    config = McmcConfig(burn_in=60, keep=40, seed=5)
    first = bayes.fit(spec, data, network, config)
    second = bayes.fit(spec, data, network, config)
    assert np.array_equal(first.sample.draws, second.sample.draws)


@pytest.mark.parametrize("effects", ["fixed", "random"])
@pytest.mark.parametrize("kind", KINDS)
def test_fit_reports_what_the_model_samples(kind, effects, studies, network):
    # fit = build, the model's own sample in its sampling parameterization,
    # then the reported draws under the model's names
    spec, data = inputs(kind, studies, effects)
    config = McmcConfig(burn_in=30, keep=20, seed=4)
    model = bayes.build_model(spec, data, network)
    expected = model.reported_draws(model.sample(config).draws)
    fitted = bayes.fit(spec, data, network, config)
    assert np.array_equal(fitted.sample.draws, expected)
    assert fitted.names == fitted.sample.names == model.names


@pytest.mark.parametrize("kind", KINDS)
def test_fit_calls_each_sampler_stage_once_through_the_module(
    kind, studies, network, monkeypatch
):
    # the benchmark's tracer wraps these module globals and reads the
    # partials from run_chains's keyword arguments
    spec, data = inputs(kind, studies)
    config = McmcConfig(burn_in=30, keep=20, seed=4)
    plain = bayes.fit(spec, data, network, config)
    calls = {name: [] for name in ("run_chains", "_d_preconditioner", "_initial_vectors")}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(kwargs)
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(bayes, name, counting(name, getattr(bayes, name)))
    traced = bayes.fit(spec, data, network, config)
    assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(calls, 1)
    assert "partials" in calls["run_chains"][0]
    assert np.array_equal(traced.sample.draws, plain.sample.draws)


@pytest.mark.parametrize("kind", ["unanchored-arm", "unanchored-contrast"])
def test_generator_data_fits_as_a_tuple(kind, studies, network):
    spec, data = inputs(kind, studies)
    config = McmcConfig(burn_in=60, keep=40, seed=5)
    first = bayes.fit(spec, tuple(data), network, config)
    second = bayes.fit(spec, (x for x in data), network, config)
    assert np.array_equal(first.sample.draws, second.sample.draws)


@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-arm"])
def test_arm_fixed_effects_agree_with_gls(kind, studies, network):
    # every treatment's contrast against A lies within 3 posterior SDs of the
    # fixed-effects GLS estimate; the anchored kind fixes d_A = 0, so its
    # reference is the GLS estimate conditioned on that
    spec, data = inputs(kind, studies, "fixed")
    fit = bayes.fit(spec, data, network, McmcConfig(burn_in=1000, keep=1000, seed=1))
    gls = gls_fit([arm_to_contrast(s, 0, "cc05") for s in studies], network, "fixed")
    ref = gls.d_hat
    if kind == "anchored-arm":
        at = network.components.index("A")
        ref = ref - gls.cov_d[:, at] * ref[at] / gls.cov_d[at, at]
    draws = fit.component_effect_draws()
    for t in network.treatments:
        if t == ANCHOR:
            continue
        w = contrast_vector(ANCHOR, t, network.components)
        post = draws @ w
        assert abs(post.mean() - w @ ref) <= 3.0 * post.std(), t.label


@pytest.mark.parametrize("effect_a", [0.5, 0.0])
def test_anchored_kind_misfits_truth_not_anchored_at_a(effect_a):
    # the truth is additive, with A's own effect effect_a; the anchored kind
    # fixes that effect at 0, so at 0.5 it misplaces the contrasts against A
    # and fits worse by DIC, while the anchor-free kind recovers them. At 0
    # both kinds are correctly specified, and their posterior means of every
    # contrast against A agree within one combined posterior SD
    effect = dict(EFFECT, A=effect_a)
    studies = additive_studies(effect)
    network = build_network(studies)
    truth = np.array([effect[c] for c in network.components])
    contrasts = np.array(
        [contrast_vector(ANCHOR, t, network.components) for t in network.treatments if t != ANCHOR]
    )
    worst, dic, mean, sd = {}, {}, {}, {}
    for kind in ("anchored-arm", "unanchored-arm"):
        spec, data = inputs(kind, studies, "fixed")
        fit = bayes.fit(spec, data, network, McmcConfig(burn_in=1000, keep=1000, seed=1))
        post = fit.component_effect_draws() @ contrasts.T
        mean[kind], sd[kind] = post.mean(axis=0), post.std(axis=0)
        worst[kind] = np.max(np.abs(mean[kind] - contrasts @ truth) / sd[kind])
        dic[kind] = bayes.dic(fit).dic
    gap = dic["anchored-arm"] - dic["unanchored-arm"]
    assert worst["unanchored-arm"] < 3.0
    if effect_a:
        assert worst["anchored-arm"] > 3.0 and gap > 4.0
    else:
        assert worst["anchored-arm"] < 3.0 and gap < 4.0
        apart = np.abs(mean["anchored-arm"] - mean["unanchored-arm"])
        assert np.all(apart < np.hypot(sd["anchored-arm"], sd["unanchored-arm"]))


def test_contrast_fixed_effects_agrees_with_gls(studies, network):
    spec, blocks = inputs("unanchored-contrast", studies, "fixed")
    fit = bayes.fit(spec, blocks, network, McmcConfig(burn_in=500, keep=1500, seed=2))
    gls = gls_fit(blocks, network, "fixed")
    draws = fit.component_effect_draws()
    for comp in "BCD":
        w = contrast_vector(ANCHOR, parse_treatment(comp), network.components)
        post = draws @ w
        assert abs(post.mean() - w @ gls.d_hat) <= 3.0 * post.std()
        assert post.std() == pytest.approx(np.sqrt(w @ gls.cov_d @ w), rel=0.3)


@pytest.mark.parametrize("effects", ["fixed", "random"])
def test_contrast_partials_evaluate_each_state_once(effects, studies, network):
    # each block's partial is first asked for the current state, which the
    # previous block left; the memo answers it, so a sweep evaluates only its
    # proposals, and a chain adds its start and its first block's current
    # state. The draws equal those of partials that evaluate every time.
    spec, blocks = inputs("unanchored-contrast", studies, effects)
    config = McmcConfig(burn_in=30, keep=20, seed=4)
    sweeps = config.n_chains * (config.burn_in + config.keep)
    n_blocks = 2 if effects == "random" else 1

    def sample(memo):
        """The draws and the number of log-posterior evaluations."""
        model = bayes.build_model(spec, blocks, network)
        evaluate, calls = model.logpost, []
        model.logpost = lambda x: calls.append(1) or evaluate(x)
        if not memo:
            memoised = model.blocks_and_partials
            model.blocks_and_partials = lambda d_chol: (
                memoised(d_chol)[0], [model.logpost] * n_blocks
            )
        return model.sample(config).draws, len(calls)

    (draws, count), (plain_draws, plain_count) = sample(True), sample(False)
    assert count == n_blocks * sweeps + 2 * config.n_chains
    assert plain_count == 2 * n_blocks * sweeps + config.n_chains
    assert np.array_equal(draws, plain_draws)


def test_contrast_logpost_keeps_no_memo(studies, network):
    # the memo is the partials'; the model evaluates on every call
    spec, blocks = inputs("unanchored-contrast", studies)
    model = bayes.build_model(spec, blocks, network)
    loglik, calls = model.loglik, []
    model.loglik = lambda x: calls.append(1) or loglik(x)
    x = model.initial_vector()
    assert model.logpost(x) == model.logpost(x)
    assert len(calls) == 2


# the quadrature reference's tolerances, set from seeds 1-20 of the fit
# below: max |z| 2.89 over the 5 parameters, SD ratios 0.93-1.13
REFERENCE_Z = 4.0
REFERENCE_SD_RATIO = (0.8, 1.25)


def test_contrast_random_effects_match_the_quadrature_reference(studies, network):
    # each posterior mean lies within REFERENCE_Z Monte Carlo SEs, from the
    # fit's ESS, of the exact mean, and each posterior SD within the band of
    # the exact SD, for the four effects and sigma alike
    spec, blocks = inputs("unanchored-contrast", studies)
    priors = spec.priors
    mean, sd = contrast_posterior_moments(
        blocks, network.components, priors.d_variance, priors.sigma_upper
    )
    fit = bayes.fit(spec, blocks, network, McmcConfig(burn_in=1000, keep=4000, seed=1))
    assert fit.names[-1] == "sigma"
    pooled = fit.sample.pooled()
    fit_sd = pooled.std(axis=0)
    z = (pooled.mean(axis=0) - mean) / (fit_sd / np.sqrt(fit.sample.ess))
    assert np.all(np.abs(z) <= REFERENCE_Z), z
    ratio = fit_sd / sd
    assert np.all((REFERENCE_SD_RATIO[0] <= ratio) & (ratio <= REFERENCE_SD_RATIO[1])), ratio


# the arm kinds' tolerances against the exact contrast posterior, set from
# seeds 1-20 of the fits below at 2 x (500 + 1500): max |z| 3.35 over d and
# sigma, SD ratios 0.76-1.24; the chains mix slowly (ESS 2-116), so both are
# wider than the contrast kind's
ARM_REFERENCE_Z = 4.5
ARM_REFERENCE_SD_RATIO = (0.7, 1.4)


@pytest.mark.parametrize("effects", ["fixed", "random"])
@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-arm"])
def test_arm_kinds_match_the_exact_contrast_posterior_at_large_counts(kind, effects):
    # with about 2000 subjects per arm the cc05 contrasts are normal with
    # their known covariance and the baselines' prior is nearly flat, so the
    # arm-level posterior of (d, sigma) is the contrast-level one: exactly
    # normal under fixed effects, by quadrature over sigma under random
    # effects; the anchored kind's reference has no column for A
    studies = additive_studies(EFFECT, scale=13)
    network = build_network(studies)
    spec, data = inputs(kind, studies, effects)
    blocks = [arm_to_contrast(s, 0, "cc05") for s in studies]
    components = [c for c in network.components if kind == "unanchored-arm" or c != "A"]
    v = spec.priors.d_variance
    if effects == "random":
        mean, sd = contrast_posterior_moments(blocks, components, v, spec.priors.sigma_upper)
    else:
        ((mean, precision, _),) = contrast_marginals(blocks, components, v, [0.0])
        sd = np.sqrt(np.diag(np.linalg.inv(precision)))
    fit = bayes.fit(spec, data, network, McmcConfig(burn_in=500, keep=1500, seed=1))
    names = [f"d[{c}]" for c in components] + (["sigma"] if effects == "random" else [])
    columns = [fit.names.index(name) for name in names]
    pooled = fit.sample.pooled()[:, columns]
    fit_sd = pooled.std(axis=0)
    z = (pooled.mean(axis=0) - mean) / (fit_sd / np.sqrt(fit.sample.ess[columns]))
    assert np.all(np.abs(z) <= ARM_REFERENCE_Z), z
    ratio = fit_sd / sd
    low, high = ARM_REFERENCE_SD_RATIO
    assert np.all((low <= ratio) & (ratio <= high)), ratio


def test_quadrature_reference_is_converged_and_its_evidence_exact(studies, network):
    # 400 cells give the moments of 4000 to well within the fit's Monte Carlo
    # error; each cell's evidence is the marginal density of y* with d
    # integrated out, N(0, S* + sigma^2 Sigma* + v XX'), which checks the
    # sign of its log det A term
    spec, blocks = inputs("unanchored-contrast", studies)
    v, upper = spec.priors.d_variance, spec.priors.sigma_upper
    coarse = contrast_posterior_moments(blocks, network.components, v, upper, cells=400)
    fine = contrast_posterior_moments(blocks, network.components, v, upper, cells=4000)
    np.testing.assert_allclose(coarse[0], fine[0], rtol=0, atol=1e-4)
    np.testing.assert_allclose(coarse[1], fine[1], rtol=1e-3)

    arrays = contrast_design_arrays(blocks, network.components)
    X, y = arrays["X"], arrays["y"]
    sigmas = (0.05, 0.3, 1.2)
    for sigma, (_, _, log_evidence) in zip(
        sigmas, contrast_marginals(blocks, network.components, v, sigmas)
    ):
        cov = stacked_covariance(blocks, sigma**2) + v * X @ X.T
        assert log_evidence == pytest.approx(mvn_logpdf(y, np.zeros(y.size), cov), abs=1e-8)


def test_contrast_fit_computes_the_weights_once_per_sigma(studies, network, monkeypatch):
    # a sweep evaluates the current sigma and one proposal, and returns to the
    # current sigma after a rejection, so the two-entry LRU cache of the
    # contrast likelihood, or of the arm kinds' eps prior, misses at most once
    # per sweep, once per chain start and once for the preconditioner's
    # fixed-effects information, for every model kind
    seen = []
    compute = design._compound_symmetry

    def counted(within, shared, starts, tau2):
        seen.append(tau2)
        return compute(within, shared, starts, tau2)

    monkeypatch.setattr(design, "_compound_symmetry", counted)
    config = McmcConfig(burn_in=60, keep=40, seed=5)
    sweeps = config.n_chains * (config.burn_in + config.keep)
    for kind in KINDS:
        seen.clear()
        spec, data = inputs(kind, studies)
        bayes.fit(spec, data, network, config)
        assert 0.0 in seen, kind
        assert len(seen) <= sweeps + config.n_chains + 1, kind


def test_anchored_preconditioner_is_information_without_anchor(studies, network):
    spec, data = inputs("anchored-arm", studies)
    model = bayes.build_model(spec, data, network)
    lower = bayes._d_preconditioner(model)

    # dense information of the whole network on contrasts against arm 0
    blocks = [arm_to_contrast(s, 0, "cc05") for s in network.studies]
    X = stack_X(network)
    info = X.T @ np.linalg.inv(stacked_covariance(blocks, 0.0)) @ X
    keep = [j for j, comp in enumerate(network.components) if comp != "A"]
    expected = info[np.ix_(keep, keep)] + np.eye(len(keep)) / spec.priors.d_variance
    np.testing.assert_allclose(lower @ lower.T, np.linalg.inv(expected), rtol=1e-10)


@pytest.mark.parametrize(
    "kind, anchor, contrast_data, error",
    [
        ("unanchored-arm", None, True, CnmaError),
        ("unanchored-contrast", None, False, CnmaError),
        ("anchored-arm", "E", False, UnknownAnchor),
    ],
)
def test_validate_rejects(kind, anchor, contrast_data, error, studies, network):
    spec = bayes.ModelSpec(kind, "random", parse_treatment(anchor) if anchor else None)
    data = list(studies)
    if contrast_data:
        data = [arm_to_contrast(s, 0, "cc05") for s in studies]
    with pytest.raises(error):
        bayes.build_model(spec, data, network)


@pytest.mark.parametrize(
    "kind, effects, anchor, priors",
    [
        ("arm", "random", None, {}),
        ("unanchored-arm", "mixed", None, {}),
        ("anchored-arm", "random", None, {}),
        ("unanchored-arm", "random", ANCHOR, {}),
        ("unanchored-arm", "random", None, {"d_variance": 0.0}),
        ("unanchored-arm", "random", None, {"d_variance": -1.0}),
        ("unanchored-arm", "random", None, {"alpha_variance": math.inf}),
        ("unanchored-arm", "random", None, {"sigma_upper": math.nan}),
        ("unanchored-arm", "random", None, {"sigma_upper": 0.0}),
        ("unanchored-arm", "random", None, {"d_variance": True}),
        ("anchored-arm", "random", "A", {}),
        ("unanchored-arm", "random", None, {"d_variance": "1"}),
        ("unanchored-arm", "random", None, None),
        ("anchored-arm", "random", parse_treatment("B+C"), {}),
    ],
)
def test_model_settings_rejected(kind, effects, anchor, priors):
    # the spec checks its own anchor: a Treatment of one component; whether
    # the network has it is left to build_model
    error = UnknownAnchor if kind == "anchored-arm" and anchor is not None else CnmaError
    with pytest.raises(error):
        bayes.ModelSpec(kind, effects, anchor, None if priors is None else bayes.Priors(**priors))


def test_mcmc_config_must_be_an_mcmc_config(studies, network, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with a config that is not an McmcConfig")

    monkeypatch.setattr(bayes, "run_chains", no_sampling)
    spec, data = inputs("unanchored-contrast", studies)
    with pytest.raises(CnmaError, match="mcmc_config must be an McmcConfig"):
        bayes.fit(spec, data, network, {"n_chains": 2})


@pytest.fixture(scope="module")
def short_fits(studies, network):
    """A short contrast-kind fit and the GLS fit of the same contrasts."""
    spec, data = inputs("unanchored-contrast", studies)
    fit = bayes.fit(spec, data, network, McmcConfig(burn_in=10, keep=10, seed=1))
    return fit, gls_fit(data, network)


@pytest.mark.parametrize(
    "call",
    [
        lambda fit, gls, components: p_scores(gls, ["A", "B"]),
        lambda fit, gls, components: contrast_vector("A", "B", components),
        lambda fit, gls, components: derive_relative_effect(
            np.zeros(4), np.eye(4), "A", "B", components
        ),
        lambda fit, gls, components: fit.treatment_effect_draws(["A"]),
        lambda fit, gls, components: sucra(np.zeros((100, 2)), ["x", "y"]),
        lambda fit, gls, components: incidence_matrix(["A"], components),
    ],
    ids=["p_scores", "contrast_vector", "derive_relative_effect", "treatment_effect_draws",
         "sucra", "incidence_matrix"],
)
def test_treatments_passed_in_must_be_treatments(call, short_fits, network):
    # a label is not a Treatment: parse it first
    fit, gls = short_fits
    with pytest.raises(CnmaError, match="is not a Treatment"):
        call(fit, gls, network.components)


@settings(max_examples=60, deadline=None)
@given(arm_networks(), st.sampled_from(["anchored-arm", "unanchored-arm"]),
       st.sampled_from(["fixed", "random"]), st.data())
def test_baseline_arm_is_a_convention(studies, kind, effects, data):
    # with arm j of study i moved to the front, a_i' = a_i + X_ij d + eps_ij
    # and eps_ik' = eps_ik - eps_ij (X_i0 = 0, eps_i0 = 0) leave every logit
    # and the eps prior as they were; only the alpha prior, which sits on a
    # study's first arm, moves, and under fixed effects not at all
    network = build_network(studies)
    spec, _ = inputs(kind, studies, effects)
    try:
        model = bayes.build_model(spec, studies, network)
    except NotIdentifiable:
        assume(False)
    firsts = [data.draw(st.integers(0, s.n_arms - 1)) for s in studies]
    moved = bayes.build_model(spec, [_arm_first(s, j) for s, j in zip(studies, firsts)], network)
    assert moved.names == model.names
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0.0, 0.5, size=model.dim)
    if effects == "random":
        # the sampling coordinate log sigma
        x[model.sigma_pos] = math.log(rng.uniform(0.1, spec.priors.sigma_upper))
    col = {name: p for p, name in enumerate(model.names)}

    def level(treatment):
        # V d; the anchored kind's anchor has no effect coordinate
        return sum(x[col[f"d[{c}]"]] for c in treatment.components if f"d[{c}]" in col)

    y = x.copy()
    for s, j in zip(studies, firsts):
        eps = [0.0] + [x[col[f"eps[{s.id}:{k}]"]] if effects == "random" else 0.0
                       for k in range(1, s.n_arms)]
        y[col[f"alpha[{s.id}]"]] += level(s.treatments[j]) - level(s.treatments[0]) + eps[j]
        if effects == "random":
            later = [k for k in range(s.n_arms) if k != j]
            for p, k in enumerate(later, 1):
                y[col[f"eps[{s.id}:{p}]"]] = eps[k] - eps[j]
    assert moved.loglik(y) == pytest.approx(model.loglik(x), rel=1e-12)
    prior_change = moved._alpha_prior(y) - model._alpha_prior(x)
    change = moved.logpost(y) - model.logpost(x)
    assert change == pytest.approx(prior_change, abs=1e-12 * abs(model.logpost(x)))
    if effects == "fixed":
        assert prior_change == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-contrast"])
def test_treatment_effect_draws(kind, studies, network):
    spec, data = inputs(kind, studies)
    fit = bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=3))
    treatments = network.treatments
    components = fit.component_effect_draws()
    levels = fit.treatment_effect_draws(treatments)
    expected = components @ incidence_matrix(treatments, network.components).T
    assert np.array_equal(levels, expected)
    if kind == "anchored-arm":
        assert np.all(fit.treatment_effect_draws([ANCHOR]) == 0.0)


def single_component_studies():
    """Five studies of the single-component treatments A, B and C: connected,
    but every contrast sums to zero over the components, so the stacked
    design has rank 2 for 3 components."""
    rng = np.random.default_rng(4)
    out = []
    for i, labels in enumerate((("A", "B"), ("B", "C"), ("A", "C"), ("A", "B", "C"), ("B", "C"))):
        totals = rng.integers(100, 200, size=len(labels))
        events = rng.binomial(totals, 0.3)
        arms = zip((parse_treatment(lab) for lab in labels), events.tolist(), totals.tolist())
        out.append(Study(id=f"s{i}", arms=tuple(ArmRecord(*arm) for arm in arms)))
    return out


@pytest.mark.parametrize("kind", ["unanchored-arm", "unanchored-contrast"])
def test_anchor_free_kinds_refuse_rank_deficient_design(kind, monkeypatch):
    studies = single_component_studies()
    net = build_network(studies)
    assert net.connected and np.linalg.matrix_rank(stack_X(net)) == 2

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a model that is not identified")

    monkeypatch.setattr(bayes, "run_chains", no_sampling)
    for effects in ("fixed", "random"):
        spec, data = inputs(kind, studies, effects)
        with pytest.raises(NotIdentifiable, match=rf"{kind}: .* rank 2 for 3 effect columns"):
            bayes.fit(spec, data, net, McmcConfig(burn_in=60, keep=40, seed=1))


@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-arm"])
def test_arm_kinds_refuse_repeated_study_ids(kind, studies, network, monkeypatch):
    # the arm kinds name their parameters by study id, so a repeated id would
    # give two parameters one name
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled studies with a repeated id")

    monkeypatch.setattr(bayes, "run_chains", no_sampling)
    spec, data = inputs(kind, studies)
    with pytest.raises(CnmaError, match="duplicate study id 's0'"):
        bayes.fit(spec, data + [studies[0]], network, McmcConfig(burn_in=60, keep=40, seed=1))


def test_rank_deficient_design_fits_anchored_and_gls():
    # dropping the anchor's column leaves a full-rank design; GLS answers the
    # estimable contrasts through its pseudoinverse
    studies = single_component_studies()
    net = build_network(studies)
    spec, data = inputs("anchored-arm", studies)
    fit = bayes.fit(spec, data, net, McmcConfig(burn_in=60, keep=40, seed=1))
    assert np.all(np.isfinite(fit.sample.draws))
    gls = gls_fit([arm_to_contrast(s, 0, "cc05") for s in studies], net, "random")
    assert gls.rank_X == 2
    assert np.all(np.isfinite(gls.d_hat))


def disconnected_identified_studies():
    """A-B, C-(A+C) and B-(B+C), four studies of each: no study joins two of
    the pairs, so the treatments form three groups, yet the pairs' contrasts
    are B - A, A and C, which identify all three components."""
    rng = np.random.default_rng(12)
    effect = {"A": 0.2, "B": 0.7, "C": -0.2}
    out = []
    for i, labels in enumerate(4 * (("A", "B"), ("C", "A+C"), ("B", "B+C"))):
        treatments = [parse_treatment(lab) for lab in labels]
        level = np.array([sum(effect[c] for c in t.components) for t in treatments])
        totals = rng.integers(100, 200, size=2)
        events = rng.binomial(totals, 1.0 / (1.0 + np.exp(0.8 - level)))
        arms = zip(treatments, events.tolist(), totals.tolist())
        out.append(Study(id=f"s{i}", arms=tuple(ArmRecord(*arm) for arm in arms)))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_disconnected_identified_network_fits(kind):
    # each component effect lies within 3 posterior SDs of the fixed-effects
    # GLS estimate; the anchored kind fixes d_A = 0, so its reference is the
    # GLS estimate conditioned on that
    studies = disconnected_identified_studies()
    net = build_network(studies)
    assert not net.connected
    gls = gls_fit([arm_to_contrast(s, 0, "cc05") for s in studies], net, "fixed")
    assert gls.rank_X == 3 == net.n_components
    assert set(p_scores(gls, net.treatments)) == set(net.treatments)
    spec, data = inputs(kind, studies, "fixed")
    fit = bayes.fit(spec, data, net, McmcConfig(burn_in=1000, keep=1000, seed=1))
    ref, cov = gls.d_hat, gls.cov_d
    if kind == "anchored-arm":
        at = net.components.index("A")
        col = cov[:, at]
        ref = ref - col * ref[at] / col[at]
        cov = cov - np.outer(col, col) / col[at]
    draws = fit.component_effect_draws()
    for j, comp in enumerate(net.components):
        if kind == "anchored-arm" and comp == "A":
            assert np.all(draws[:, j] == 0.0)
            continue
        post = draws[:, j]
        assert abs(post.mean() - ref[j]) <= 3.0 * post.std(), comp
        assert post.std() == pytest.approx(np.sqrt(cov[j, j]), rel=0.3), comp


@pytest.mark.parametrize("kind", KINDS)
def test_unreferenced_component_is_not_identified(kind, studies, network):
    # a listed component no study uses has an all-zero column
    extra = Network(studies, network.components + ("E",))
    spec, data = inputs(kind, studies)
    columns = 4 if kind == "anchored-arm" else 5
    with pytest.raises(NotIdentifiable, match=rf"rank {columns - 1} for {columns} effect"):
        bayes.build_model(spec, data, extra)


def test_validate_rejects_empty_data(network):
    with pytest.raises(EmptyNetwork):
        bayes.build_model(bayes.ModelSpec("unanchored-arm"), [], network)


@pytest.mark.parametrize("kind", KINDS)
def test_preconditioner_fallback_is_logged(kind, studies, network, monkeypatch, caplog):
    # with W = -I the information -X'X + I/v is negative definite, and its
    # inverse has no Cholesky factor; the arm kinds' d-shift then moves d by z
    # and the latents by -X z
    monkeypatch.setattr(ContrastDesign, "weigh", lambda self, tau2, m: -m)
    spec, data = inputs(kind, studies)
    with caplog.at_level(logging.WARNING, logger="cnma"):
        fit = bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=1))
    assert any(
        r.name == "cnma" and "LinAlgError" in r.getMessage() for r in caplog.records
    )
    assert np.all(np.isfinite(fit.sample.draws))


@pytest.mark.parametrize("effects", ["fixed", "random"])
def test_fit_summary_and_sigma_draws(effects, studies, network):
    spec, data = inputs("unanchored-contrast", studies, effects)
    fit = bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=3))
    assert fit.summary(0.8) == mcmc.summarize(fit.sample, 0.8)
    if effects == "fixed":
        assert fit.sigma_draws() is None and "sigma" not in fit.names
    else:
        sigma = fit.sample.pooled()[:, fit.names.index("sigma")]
        assert np.array_equal(fit.sigma_draws(), sigma)


@pytest.mark.parametrize("kind", KINDS)
def test_only_an_anchor_copies_the_design_X(kind, studies, network):
    # without an anchor column to drop, a model reads its design's X itself,
    # so a fit holds one X; the anchored kind holds its columns, C-ordered
    spec, data = inputs(kind, studies)
    model = bayes.build_model(spec, data, network)
    assert (model.X is model.design.X) == (kind != "anchored-arm")
    assert model.X.flags.c_contiguous


@pytest.mark.parametrize("effects", ["fixed", "random"])
@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-arm"])
def test_arm_design_is_the_cc05_design(kind, effects, wide_studies):
    # the arm kinds' X, the one X the likelihood, the partials, the rank check
    # and the preconditioner read, is the contrast design's on each study's
    # first arm in the data's order, bit for bit, and it is the model's own
    # design's X without the anchor's column
    spec, data = inputs(kind, wide_studies, effects)
    network = build_network(wide_studies)
    model = bayes.build_model(spec, data, network)
    contrasts = [arm_to_contrast(s, 0, "cc05") for s in wide_studies]
    X = ContrastDesign(contrasts, network.components).X[:, model.d_columns]
    V1 = incidence_matrix([s.treatments[0] for s in wide_studies], network.components)
    assert np.array_equal(model.X, X) and model.X.flags.c_contiguous
    assert np.array_equal(model.X, model.design.X[:, model.d_columns])
    assert np.array_equal(model.V1, V1[:, model.d_columns]) and model.V1.flags.c_contiguous
    if effects == "random":
        # the d-shift moves d by C z and the latents by -X C z, with C the
        # preconditioner or, without one, the identity
        for chol in (bayes._d_preconditioner(model), None):
            blocks, _ = model.blocks_and_partials(chol)
            (shift,) = [b for b in blocks if b.name == "d-shift"]
            C = np.eye(model.X.shape[1]) if chol is None else chol
            assert np.array_equal(shift.factor, np.vstack([C, -(model.X @ C)]))


@pytest.mark.parametrize("effects", ["fixed", "random"])
@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-arm"])
def test_block_partials_track_logpost(kind, effects, studies, wide_studies):
    # a move of one block changes its partial as much as the log posterior: on
    # the fixture, with two four-arm studies, and where logits pass +-35
    for records, past_35 in ((studies, False), (wide_studies, False), (studies, True)):
        spec, data = inputs(kind, records, effects)
        model = bayes.build_model(spec, data, build_network(records))
        blocks, partials = model.blocks_and_partials(bayes._d_preconditioner(model))
        # d, then alpha per study; under random effects also sigma, eps per
        # study and d-shift
        n = len(records)
        assert len(partials) == (3 + 2 * n if effects == "random" else 1 + n)
        x = model.to_internal(bayes._initial_vectors(model, McmcConfig(seed=3))[0])
        if past_35:
            # every logit of study 0 lies above 35 and of study 1 below -35
            x[model.alpha_sl.start : model.alpha_sl.start + 2] = (40.0, -40.0)
            logits = reported_logits(records, model.names, model.reported_draws(x.copy()))
            n0, n1 = records[0].n_arms, records[1].n_arms
            assert logits[:n0].min() > 35.0 and logits[n0 : n0 + n1].max() < -35.0
        rng = np.random.default_rng(3)
        for block, partial in zip(blocks, partials):
            y = x.copy()
            dims, factor = list(block.dims), block.factor
            z = 0.3 * rng.standard_normal(len(dims) if factor is None else factor.shape[1])
            y[dims] += z if factor is None else factor @ z
            change = model.logpost(y) - model.logpost(x)
            assert np.isfinite(change)
            assert partial(y) - partial(x) == pytest.approx(change, abs=1e-9), block.name


@settings(max_examples=60, deadline=None)
@given(arm_networks(), st.sampled_from(["anchored-arm", "unanchored-arm"]),
       st.sampled_from(["fixed", "random"]), st.data())
def test_study_partials_equal_the_scalar_reference(studies, kind, effects, data):
    # each study's alpha and eps partials equal the plain scalar arithmetic
    # of tests/dense.py bit for bit: 2-4 arms, zero cells, the anchor at any
    # arm, and some baselines scaled by 60 so that logits pass +-35 both
    # ways. A reordered sum changes the last bit at a few per cent of the
    # points, so each example checks 20 of them
    network = build_network(studies)
    spec, _ = inputs(kind, studies, effects)
    try:
        model = bayes.build_model(spec, studies, network)
    except NotIdentifiable:
        assume(False)
    partials = [model._study_partials(i) for i in range(len(studies))]
    assert all((eps is None) == (effects == "fixed") for _, eps in partials)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(20):
        x = rng.normal(0.0, 1.0, size=model.dim)
        x[model.alpha_sl] *= rng.choice([1.0, 60.0], size=len(studies))
        for study, (alpha_partial, eps_partial) in zip(studies, partials):
            expected = arm_study_partials(study, model.names, x, spec.priors.alpha_variance)
            assert alpha_partial(x) == expected[0]
            if eps_partial is not None:
                assert eps_partial(x) == expected[1]


@pytest.mark.parametrize("effects", ["fixed", "random"])
@pytest.mark.parametrize("kind", KINDS)
def test_fit_keeps_none_of_the_partials(kind, effects, studies, network, monkeypatch):
    # the sampler's partials, the per-study closures included, are built for
    # one fit; the returned fit, its model included, keeps none of them, so
    # reference counting alone frees them once fit returns
    refs = []
    run_chains = bayes.run_chains

    def recording(*args, partials, **kwargs):
        refs.extend(weakref.ref(p) for p in partials)
        return run_chains(*args, partials=partials, **kwargs)

    monkeypatch.setattr(bayes, "run_chains", recording)
    spec, data = inputs(kind, studies, effects)
    gc.disable()
    try:
        # the fit is held while the references are read
        fit = bayes.fit(spec, data, network, McmcConfig(burn_in=30, keep=20, seed=4))
        assert isinstance(fit, bayes.BayesFit) and refs
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-arm"])
def test_fit_keeps_nothing_per_chain_but_draws(kind, studies, network, caplog):
    # what a fit keeps besides its draws is the same at 2 chains as at 8;
    # each count takes the smaller of two fits, as a first traced fit can
    # allocate a one-off buffer
    caplog.set_level(logging.ERROR, logger="cnma")
    spec, data = inputs(kind, studies)

    def kept_besides_draws(n_chains):
        config = McmcConfig(n_chains=n_chains, burn_in=1, keep=4, seed=4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit = bayes.fit(spec, data, network, config)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return retained - fit.sample.draws.nbytes

    two, eight = (min(kept_besides_draws(n) for _ in range(2)) for n in (2, 8))
    assert abs(eight - two) < 2048


@pytest.mark.parametrize("kind", KINDS)
def test_diagnostics_are_those_of_reported_draws(kind, studies, network, monkeypatch):
    # one vectorised call of each diagnostic per fit, on the reported draws
    calls = []

    def counted(fn):
        def wrapper(chains):
            calls.append((fn.__name__, np.shape(chains)))
            return fn(chains)

        return wrapper

    for name in ("rhat", "ess"):
        monkeypatch.setattr(mcmc, name, counted(getattr(mcmc, name)))
    spec, data = inputs(kind, studies)
    fit = bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=2))
    draws = fit.sample.draws
    assert sorted(calls) == [("ess", draws.shape), ("rhat", draws.shape)]
    for j in range(draws.shape[-1]):
        assert fit.sample.rhat[j] == reference_rhat(draws[:, :, j])
        assert fit.sample.ess[j] == pytest.approx(reference_ess(draws[:, :, j]), rel=1e-12)
    assert fit.max_rhat == max(reference_rhat(draws[:, :, j]) for j in range(draws.shape[-1]))


def test_unconverged_fit_warns_with_worst_parameters(studies, network, caplog):
    spec, data = inputs("unanchored-arm", studies)
    with caplog.at_level(logging.WARNING, logger="cnma"):
        fit = bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=2))
    records = [r for r in caplog.records if r.name == "cnma"]
    assert len(records) == 1 and records[0].levelno == logging.WARNING
    message = records[0].getMessage()
    assert fit.names[int(np.argmax(fit.sample.rhat))] in message
    assert fit.names[int(np.argmin(fit.sample.ess))] in message


def test_converged_fit_logs_nothing(studies, network, caplog):
    spec, blocks = inputs("unanchored-contrast", studies, "fixed")
    with caplog.at_level(logging.DEBUG, logger="cnma"):
        fit = bayes.fit(spec, blocks, network, McmcConfig(burn_in=500, keep=8000, seed=2))
    assert fit.max_rhat <= bayes.RHAT_LIMIT
    assert fit.sample.ess.min() >= bayes.ESS_LIMIT
    assert not [r for r in caplog.records if r.name == "cnma"]


def reported_logits(studies, names, x):
    """Per-arm logits alpha_i + V d + eps of reported vectors x (rows), read
    by parameter name; the anchor component has no effect coordinate."""
    col = {name: j for j, name in enumerate(names)}
    logits = []
    for s in studies:
        for j, arm in enumerate(s.arms):
            lo = x[..., col[f"alpha[{s.id}]"]].copy()
            for c in arm.treatment.components:
                if f"d[{c}]" in col:
                    lo += x[..., col[f"d[{c}]"]]
            if j > 0 and f"eps[{s.id}:{j}]" in col:
                lo += x[..., col[f"eps[{s.id}:{j}]"]]
            logits.append(lo)
    return np.stack(logits, axis=-1)


def binomial_loglik(studies, names, x):
    r, n = np.array([[arm.events, arm.total] for s in studies for arm in s.arms], dtype=float).T
    p = expit(reported_logits(studies, names, x))
    return binom.logpmf(r, n, p).sum(axis=-1)


@pytest.mark.parametrize("total", [1, 2, 7, 40, 10**3, 10**5, 10**6, 10**7])
def test_log_binomial_coefficients_match_gammaln(total):
    # the constant is summed with the standard library's lgamma, one arm at a
    # time; scipy's vectorised gammaln is the reference
    rng = np.random.default_rng(total)
    n = rng.integers(1, total, size=12, endpoint=True).astype(float)
    n[:2] = total
    r = np.floor(rng.uniform(size=n.size) * (n + 1)).clip(0, n)
    r[0], r[1] = 0.0, n[1]  # log C(n, 0) = log C(n, n) = 0
    expected = np.sum(gammaln(n + 1) - gammaln(r + 1) - gammaln(n - r + 1))
    assert bayes._log_binomial_coefficients(r, n) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("effects", ["fixed", "random"])
@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-arm"])
def test_dic_is_binomial_deviance_of_reported_draws(kind, effects, studies, network):
    spec, data = inputs(kind, studies, effects)
    fit = bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=6))
    result = bayes.dic(fit)
    pooled = fit.sample.pooled()
    deviances = -2.0 * binomial_loglik(studies, fit.names, pooled)
    at_mean = -2.0 * binomial_loglik(studies, fit.names, pooled.mean(axis=0))
    assert result.deviance_bar == pytest.approx(deviances.mean(), rel=1e-9)
    assert result.deviance_at_mean == pytest.approx(at_mean, rel=1e-9)
    assert result.p_d == result.deviance_bar - result.deviance_at_mean
    assert result.dic == result.deviance_bar + result.p_d
    # a function of the fit's draws, not a copy stored on the fit
    assert bayes.dic(fit) == result


def test_dic_rejects_contrast_kind(studies, network):
    spec, data = inputs("unanchored-contrast", studies)
    with pytest.raises(CnmaError):
        bayes.dic(bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=6)))


@pytest.mark.parametrize("effects", ["fixed", "random"])
@pytest.mark.parametrize("kind", KINDS)
def test_logpost_matches_dense_reference(kind, effects, studies, wide_studies):
    # on the fixture, and with two four-arm studies: eps blocks of 3 latents,
    # a zero cell and the anchor as a study's second arm; at the default
    # priors, and at priors whose effect and baseline variances differ, so
    # that each normal prior's normaliser and sigma's bound are told apart.
    # The log posterior is the density of the sampling coordinates, so under
    # random effects sigma's U(0, sigma_upper) prior enters as one of log
    # sigma, with the Jacobian + log sigma
    distinct = bayes.Priors(d_variance=40.0, alpha_variance=250.0, sigma_upper=3.0)
    for records, priors in itertools.product((studies, wide_studies), (bayes.Priors(), distinct)):
        spec, data = inputs(kind, records, effects)
        spec = dataclasses.replace(spec, priors=priors)
        model = bayes.build_model(spec, data, build_network(records))
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 0.5, size=model.dim)
        col = {name: j for j, name in enumerate(model.names)}
        d = x[[j for name, j in col.items() if name.startswith("d[")]]
        sigma, expected = 0.0, norm.logpdf(d, 0.0, np.sqrt(priors.d_variance)).sum()
        if effects == "random":
            sigma = x[col["sigma"]] = rng.uniform(0.1, priors.sigma_upper)
            expected += np.log(sigma) - np.log(priors.sigma_upper)
        if kind == "unanchored-contrast":
            arrays = contrast_design_arrays(data, model.network.components)
            cov = stacked_covariance(data, sigma**2)
            expected += mvn_logpdf(arrays["y"], arrays["X"] @ d, cov)
        else:
            alpha = x[[col[f"alpha[{s.id}]"] for s in records]]
            expected += binomial_loglik(records, model.names, x)
            expected += norm.logpdf(alpha, 0.0, np.sqrt(priors.alpha_variance)).sum()
            for s in records if effects == "random" else ():
                eps = x[[col[f"eps[{s.id}:{j}]"] for j in range(1, s.n_arms)]]
                cov = sigma**2 * build_Sigma_star(s.n_arms)
                expected += mvn_logpdf(eps, np.zeros(s.n_arms - 1), cov)
        internal = model.to_internal(x)
        assert model.logpost(internal) == pytest.approx(expected, rel=1e-9)
        if effects == "random":
            # -inf from u = log sigma_upper on, finite just below it
            log_upper = math.log(priors.sigma_upper)
            internal[model.sigma_pos] = np.nextafter(log_upper, -math.inf)
            assert math.isfinite(model.logpost(internal))
            internal[model.sigma_pos] = log_upper
            assert model.logpost(internal) == -math.inf


@pytest.mark.parametrize("kind", KINDS)
def test_to_internal_and_reported_draws_round_trip(kind, studies, network):
    spec, data = inputs(kind, studies)
    model = bayes.build_model(spec, data, network)
    rng = np.random.default_rng(9)
    stack = rng.normal(size=(2, 7, model.dim))
    stack[..., model.sigma_pos] = rng.uniform(0.1, spec.priors.sigma_upper, size=(2, 7))
    internal = model.to_internal(stack)
    assert internal.shape == stack.shape
    for c in range(2):
        for t in range(7):
            assert np.array_equal(internal[c, t], model.to_internal(stack[c, t]))
    np.testing.assert_allclose(model.reported_draws(internal), stack, rtol=0, atol=1e-12)
