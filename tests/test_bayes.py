import logging
import math

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom, norm

from cnma import bayes, mcmc
from cnma.design import incidence_matrix, stack_X
from cnma.effects import contrast_vector
from cnma.errors import (
    CnmaError,
    EmptyNetwork,
    NotIdentifiable,
    NotPositiveDefinite,
    UnknownAnchor,
)
from cnma.freq import gls_fit, p_scores
from cnma.mcmc import McmcConfig
from cnma.network import ArmRecord, Study, arm_to_contrast, build_network, parse_treatment
from dense import block_covariance, build_Sigma_star, mvn_logpdf
from test_mcmc import reference_ess, reference_rhat

KINDS = ("anchored-arm", "unanchored-arm", "unanchored-contrast")
ANCHOR = parse_treatment("A")
DESIGNS = (
    ("A", "B"), ("A", "C"), ("A", "D"), ("A", "B+C"), ("B", "C+D"), ("C", "B+D"),
    ("A", "B", "C+D"), ("D", "B+C+D"), ("A", "C", "B+C"), ("B", "D"), ("A", "B+C+D"),
    ("C", "D", "B+D"),
)


@pytest.fixture(scope="module")
def studies():
    """Twelve studies on four components, additive on the anchor A, with the
    anchor as baseline arm wherever it appears."""
    rng = np.random.default_rng(20)
    effect = {"A": 0.0, "B": 0.4, "C": -0.3, "D": 0.2}
    out = []
    for i, labels in enumerate(DESIGNS):
        treatments = [parse_treatment(lab) for lab in labels]
        level = np.array([sum(effect[c] for c in t.components) for t in treatments])
        totals = rng.integers(100, 200, size=len(treatments))
        events = rng.binomial(totals, 1.0 / (1.0 + np.exp(0.8 - level)))
        arms = zip(treatments, events.tolist(), totals.tolist())
        out.append(Study(id=f"s{i}", arms=tuple(ArmRecord(*arm) for arm in arms)))
    return tuple(out)


@pytest.fixture(scope="module")
def network(studies):
    net = build_network(studies)
    assert net.connected and np.linalg.matrix_rank(stack_X(net)) == net.n_components
    return net


def inputs(kind, studies, effects="random"):
    spec = bayes.ModelSpec(kind, effects, ANCHOR if kind == "anchored-arm" else None)
    if kind == "unanchored-contrast":
        return spec, [arm_to_contrast(s, 0, "cc05") for s in studies]
    return spec, list(studies)


@pytest.mark.parametrize("kind", KINDS)
def test_same_seed_bit_identical_draws(kind, studies, network):
    spec, data = inputs(kind, studies)
    config = McmcConfig(burn_in=60, keep=40, seed=5)
    first = bayes.fit(spec, data, network, config)
    second = bayes.fit(spec, data, network, config)
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
        at = network.component_index("A")
        ref = ref - gls.cov_d[:, at] * ref[at] / gls.cov_d[at, at]
    draws = fit.component_effect_draws()
    for t in network.treatments:
        if t == ANCHOR:
            continue
        w = contrast_vector(ANCHOR, t, network.components)
        post = draws @ w
        assert abs(post.mean() - w @ ref) <= 3.0 * post.std(), t.label


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


def test_anchored_preconditioner_is_information_without_anchor(studies, network):
    spec, data = inputs("anchored-arm", studies)
    model = bayes.build_model(spec, data, network)
    lower = bayes._d_preconditioner(model)

    # dense information of the whole network on contrasts against arm 0
    blocks = [arm_to_contrast(s, 0, "cc05") for s in network.studies]
    X = stack_X(network)
    W = np.zeros((X.shape[0], X.shape[0]))
    at = 0
    for b in blocks:
        m = b.y_star.size
        W[at : at + m, at : at + m] = np.linalg.inv(block_covariance(b))
        at += m
    info = X.T @ W @ X
    keep = [j for j, comp in enumerate(network.components) if comp != "A"]
    expected = info[np.ix_(keep, keep)] + np.eye(len(keep)) / spec.priors.d_variance
    np.testing.assert_allclose(lower @ lower.T, np.linalg.inv(expected), rtol=1e-10)


def test_contrast_model_loglik_is_sum_of_block_densities(studies, network):
    # sigma = 0.7 enters the covariance as sigma^2 Sigma*
    spec, blocks = inputs("unanchored-contrast", studies)
    model = bayes.build_model(spec, blocks, network)
    x = np.array([0.1, -0.2, 0.3, 0.05, 0.7])
    X = stack_X(network)
    expected, at = 0.0, 0
    for b in blocks:
        m = b.y_star.size
        cov = block_covariance(b) + 0.49 * build_Sigma_star(b.n_arms)
        expected += mvn_logpdf(b.y_star, X[at : at + m] @ x[model.d_sl], cov)
        at += m
    assert model.loglik(x) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "kind, anchor, contrast_data, error",
    [
        ("unanchored-arm", None, True, CnmaError),
        ("unanchored-contrast", None, False, CnmaError),
        ("anchored-arm", "E", False, UnknownAnchor),
        ("anchored-arm", "B+C", False, UnknownAnchor),
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
    ],
)
def test_model_settings_rejected(kind, effects, anchor, priors):
    with pytest.raises(CnmaError):
        bayes.ModelSpec(kind, effects, anchor, bayes.Priors(**priors))


def test_anchor_moves_to_first_arm(studies, network):
    # the anchor is the first arm wherever it appears; moved to the last arm,
    # the anchored model reorders it back and samples the same chain
    moved = [
        Study(s.id, s.arms[1:] + s.arms[:1]) if s.arms[0].treatment == ANCHOR else s
        for s in studies
    ]
    assert moved != list(studies)
    spec, data = inputs("anchored-arm", studies)
    config = McmcConfig(burn_in=60, keep=40, seed=7)
    first = bayes.fit(spec, data, network, config)
    second = bayes.fit(spec, moved, network, config)
    assert np.array_equal(first.sample.draws, second.sample.draws)


@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-contrast"])
def test_treatment_effect_draws(kind, studies, network):
    spec, data = inputs(kind, studies)
    fit = bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=3))
    treatments = network.treatments
    components = fit.component_effect_draws()
    levels = fit.treatment_effect_draws(treatments)
    expected = components @ incidence_matrix(treatments, network.components).T
    assert np.array_equal(levels, expected)
    reference = parse_treatment("B+C")
    relative = fit.treatment_effect_draws(treatments, reference)
    at = treatments.index(reference)
    np.testing.assert_allclose(relative, levels - levels[:, [at]], rtol=0, atol=1e-12)
    assert np.all(relative[:, at] == 0.0)
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
        at = net.component_index("A")
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
    extra = build_network(studies, components=network.components + ("E",))
    spec, data = inputs(kind, studies)
    columns = 4 if kind == "anchored-arm" else 5
    with pytest.raises(NotIdentifiable, match=rf"rank {columns - 1} for {columns} effect"):
        bayes.build_model(spec, data, extra)


def test_validate_rejects_empty_data(network):
    with pytest.raises(EmptyNetwork):
        bayes.build_model(bayes.ModelSpec("unanchored-arm"), [], network)


def test_preconditioner_fallback_is_logged(studies, network, monkeypatch, caplog):
    def failing_chol(m):
        raise NotPositiveDefinite("forced")

    monkeypatch.setattr(bayes, "chol", failing_chol)
    spec, data = inputs("unanchored-contrast", studies)
    with caplog.at_level(logging.WARNING, logger="cnma"):
        fit = bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=1))
    assert any(
        r.name == "cnma" and "NotPositiveDefinite" in r.getMessage() for r in caplog.records
    )
    assert np.all(np.isfinite(fit.sample.draws))


@pytest.mark.parametrize("effects", ["fixed", "random"])
@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-arm"])
def test_block_partials_track_logpost(kind, effects, studies, network):
    # a move of one block changes its partial as much as the log posterior
    spec, data = inputs(kind, studies, effects)
    model = bayes.build_model(spec, data, network)
    blocks, partials = model.blocks_and_partials(bayes._d_preconditioner(model))
    # d, then alpha per study; under random effects also sigma, eps per study and d-shift
    assert len(partials) == (3 + 2 * len(studies) if effects == "random" else 1 + len(studies))
    x = model.to_internal(bayes._initial_vectors(model, McmcConfig(seed=3))[0])
    rng = np.random.default_rng(3)
    for block, partial in zip(blocks, partials):
        y = x.copy()
        dims = list(block.dims)
        if block.shift_map is not None:
            k = block.shift_map.shape[1]
            delta = 0.3 * rng.standard_normal(k)
            y[dims[:k]] += delta
            y[dims[k:]] -= block.shift_map @ delta
        elif block.log_scale:
            y[dims] *= np.exp(0.3 * rng.standard_normal(len(dims)))
        else:
            y[dims] += 0.3 * rng.standard_normal(len(dims))
        change = model.logpost(y) - model.logpost(x)
        assert np.isfinite(change)
        assert partial(y) - partial(x) == pytest.approx(change, abs=1e-9), block.name


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


def arm_order(kind, study):
    """A study's arms in the arm models' order: the anchor first where present."""
    if kind != "anchored-arm":
        return study.arms
    return tuple(sorted(study.arms, key=lambda arm: arm.treatment != ANCHOR))


def reported_logits(kind, studies, names, x):
    """Per-arm logits alpha_i + V d + eps of reported vectors x (rows), read
    by parameter name; the anchor component has no effect coordinate."""
    col = {name: j for j, name in enumerate(names)}
    logits = []
    for s in studies:
        for j, arm in enumerate(arm_order(kind, s)):
            lo = x[..., col[f"alpha[{s.id}]"]].copy()
            for c in arm.treatment.components:
                if f"d[{c}]" in col:
                    lo += x[..., col[f"d[{c}]"]]
            if j > 0 and f"eps[{s.id}:{j}]" in col:
                lo += x[..., col[f"eps[{s.id}:{j}]"]]
            logits.append(lo)
    return np.stack(logits, axis=-1)


def binomial_loglik(kind, studies, names, x):
    r, n = np.array(
        [[arm.events, arm.total] for s in studies for arm in arm_order(kind, s)], dtype=float
    ).T
    p = expit(reported_logits(kind, studies, names, x))
    return binom.logpmf(r, n, p).sum(axis=-1)


@pytest.mark.parametrize("effects", ["fixed", "random"])
@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-arm"])
def test_dic_is_binomial_deviance_of_reported_draws(kind, effects, studies, network):
    spec, data = inputs(kind, studies, effects)
    fit = bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=6))
    result = bayes.dic(fit)
    pooled = fit.sample.pooled()
    deviances = -2.0 * binomial_loglik(kind, studies, fit.names, pooled)
    at_mean = -2.0 * binomial_loglik(kind, studies, fit.names, pooled.mean(axis=0))
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
@pytest.mark.parametrize("kind", ["anchored-arm", "unanchored-arm"])
def test_arm_logpost_matches_dense_reference(kind, effects, studies, network):
    spec, data = inputs(kind, studies, effects)
    model = bayes.build_model(spec, data, network)
    priors = spec.priors
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 0.5, size=model.dim)
    col = {name: j for j, name in enumerate(model.names)}
    d = x[[j for name, j in col.items() if name.startswith("d[")]]
    alpha = x[[col[f"alpha[{s.id}]"] for s in studies]]
    expected = (
        binomial_loglik(kind, studies, model.names, x)
        + norm.logpdf(d, 0.0, np.sqrt(priors.d_variance)).sum()
        + norm.logpdf(alpha, 0.0, np.sqrt(priors.alpha_variance)).sum()
    )
    if effects == "random":
        sigma = x[col["sigma"]] = rng.uniform(0.1, priors.sigma_upper)
        for s in studies:
            eps = x[[col[f"eps[{s.id}:{j}]"] for j in range(1, s.n_arms)]]
            cov = sigma**2 * build_Sigma_star(s.n_arms)
            expected += mvn_logpdf(eps, np.zeros(s.n_arms - 1), cov)
        expected -= np.log(priors.sigma_upper)
    assert model.logpost(model.to_internal(x)) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("kind", KINDS)
def test_to_internal_and_reported_draws_round_trip(kind, studies, network):
    spec, data = inputs(kind, studies)
    model = bayes.build_model(spec, data, network)
    stack = np.random.default_rng(9).normal(size=(2, 7, model.dim))
    internal = model.to_internal(stack)
    assert internal.shape == stack.shape
    for c in range(2):
        for t in range(7):
            assert np.array_equal(internal[c, t], model.to_internal(stack[c, t]))
    np.testing.assert_allclose(model.reported_draws(internal), stack, rtol=0, atol=1e-12)
