import logging

import numpy as np
import pytest

from cnma import bayes, mcmc
from cnma.design import build_Sigma_star, stack_X
from cnma.effects import contrast_vector
from cnma.errors import CnmaError, EmptyNetwork, NotPositiveDefinite, UnknownAnchor
from cnma.freq import gls_fit
from cnma.mcmc import McmcConfig
from cnma.network import ArmRecord, Study, arm_to_contrast, build_network, parse_treatment
from cnma.numerics import mvn_logpdf

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
    lower = bayes._d_preconditioner(model, network, spec)

    # dense information of the whole network on contrasts against arm 0
    blocks = [arm_to_contrast(s, 0, "cc05") for s in network.studies]
    X = stack_X(network)
    W = np.zeros((X.shape[0], X.shape[0]))
    at = 0
    for b in blocks:
        m = b.y_star.size
        W[at : at + m, at : at + m] = np.linalg.inv(b.covariance())
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
        cov = b.covariance() + 0.49 * build_Sigma_star(b.n_arms)
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


def test_validate_rejects_empty_data(network):
    with pytest.raises(EmptyNetwork):
        bayes.build_model(bayes.ModelSpec("unanchored-arm"), [], network)


def test_preconditioner_fallback_is_logged(studies, network, monkeypatch, caplog):
    def failing_chol(m, jitter_floor=0.0):
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
    blocks, partials = model.blocks_and_partials(bayes._d_preconditioner(model, network, spec))
    # d, then alpha per study; under random effects also sigma, eps per study and d-shift
    assert len(partials) == (3 + 2 * len(studies) if effects == "random" else 1 + len(studies))
    x = model.to_internal(bayes._initial_vectors(model, McmcConfig(seed=3), spec)[0])
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
        change = model.logpost_internal(y) - model.logpost_internal(x)
        assert np.isfinite(change)
        assert partial(y) - partial(x) == pytest.approx(change, abs=1e-9), block.name


@pytest.mark.parametrize("kind", KINDS)
def test_diagnostics_are_those_of_reported_draws(kind, studies, network, monkeypatch):
    # run_chains' values are reused except where reported_draws remaps a column
    calls = []

    def counted_rhat(chains):
        calls.append(1)
        return mcmc.rhat(chains)

    monkeypatch.setattr(bayes, "_rhat", counted_rhat)
    spec, data = inputs(kind, studies)
    fit = bayes.fit(spec, data, network, McmcConfig(burn_in=60, keep=40, seed=2))
    draws = fit.sample.draws
    for j in range(draws.shape[-1]):
        assert fit.sample.rhat[j] == mcmc.rhat(draws[:, :, j])
        assert fit.sample.ess[j] == mcmc.ess(draws[:, :, j])
    assert len(calls) == (0 if kind == "unanchored-contrast" else len(studies))
