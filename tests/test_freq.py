import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from cnma import bayes
from cnma.design import ContrastDesign, incidence_matrix, stack_X
from cnma.effects import contrast_vector, sucra
from cnma.errors import CnmaError, NotIdentifiable
from cnma.freq import FreqFit, gls_fit, p_scores
from cnma.mcmc import McmcConfig
from cnma.network import (
    ArmRecord,
    ContrastBlock,
    Network,
    Study,
    Treatment,
    _arm_first,
    arm_to_contrast,
    build_network,
    parse_treatment,
)
from dense import build_U, stacked_Sigma_star, stacked_covariance


def block(study_id, labels, y, se, se_baseline=0.05):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    se = np.atleast_1d(np.asarray(se, dtype=float))
    return ContrastBlock(
        study_id=study_id,
        y_star=y,
        se=se,
        se_baseline=se_baseline,
        treatments=tuple(parse_treatment(lab) for lab in labels),
    )


def network_of(blocks):
    studies = []
    for b in blocks:
        arms = tuple(ArmRecord(t, 1, 10) for t in b.treatments)
        studies.append(Study(id=b.study_id, arms=arms))
    return build_network(studies)


class TestGlsFit:
    def test_single_study_minimum_norm(self):
        b = block("s1", ["Placebo", "A"], 0.5, 0.2)
        fit = gls_fit([b], network_of([b]), "fixed")
        assert np.allclose(fit.d_hat, [-0.25, 0.25], atol=1e-10)
        est = fit.d_hat[1] - fit.d_hat[0]
        assert est == pytest.approx(0.5, abs=1e-10)

    def test_noiseless_recovery(self):
        blocks = [
            block("s1", ["E", "A"], 1.2, 0.3),
            block("s2", ["E", "C"], 0.8, 0.25),
            block("s3", ["E", "A+C"], 2.0, 0.4),
            block("s4", ["A", "A+C"], 0.8, 0.2),
        ]
        net = network_of(blocks)
        fit = gls_fit(blocks, net, "fixed")
        X = stack_X(net)
        y = np.concatenate([b.y_star for b in blocks])
        assert np.allclose(X @ fit.d_hat, y, atol=1e-8)

    @pytest.mark.parametrize("effects_model", ["Random", "mixed", ""])
    def test_unknown_effects_model_rejected(self, effects_model):
        b = block("s1", ["Placebo", "A"], 0.5, 0.2)
        with pytest.raises(CnmaError, match="unknown effects model"):
            gls_fit([b], network_of([b]), effects_model)

    def test_duplicated_study_halves_variance(self):
        single = [block("s1", ["Placebo", "A"], 0.5, 0.2)]
        double = single + [block("s2", ["Placebo", "A"], 0.5, 0.2)]
        w = np.array([-1.0, 1.0])
        fit1 = gls_fit(single, network_of(single), "fixed")
        fit2 = gls_fit(double, network_of(double), "fixed")
        assert w @ fit1.cov_d @ w == pytest.approx(0.04, abs=1e-12)
        assert w @ fit2.cov_d @ w == pytest.approx(0.02, abs=1e-12)

    def test_disconnected_rejected(self, monkeypatch):
        # E-A and C-D share no component: no contrast between the two pairs
        # is estimable, so GLS refuses, and every Bayesian kind refuses
        # before sampling (rank 2 of 4 effect columns, or 2 of 3 anchored)
        blocks = [
            block("s1", ["E", "A"], 0.5, 0.2),
            block("s2", ["C", "D"], 0.1, 0.2),
        ]
        net = network_of(blocks)
        with pytest.raises(NotIdentifiable, match="'C' versus 'E'"):
            gls_fit(blocks, net, "fixed")

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a model that is not identified")

        monkeypatch.setattr(bayes, "run_chains", no_sampling)
        for kind, anchor, data in (
            ("anchored-arm", parse_treatment("E"), net.studies),
            ("unanchored-arm", None, net.studies),
            ("unanchored-contrast", None, blocks),
        ):
            spec = bayes.ModelSpec(kind, "random", anchor)
            with pytest.raises(NotIdentifiable, match=rf"{kind}: .* rank 2 for"):
                bayes.fit(spec, data, net, McmcConfig(burn_in=60, keep=40, seed=1))

    @pytest.mark.parametrize("effects_model", ["fixed", "random"])
    def test_contrast_only_network_fits(self, effects_model):
        # a network of no studies but the components: estimability is checked
        # over the treatments the blocks compare, in order of first appearance
        blocks = [
            block("s1", ["A", "B+C"], 0.5, 0.2),
            block("s2", ["A", "B"], 0.3, 0.25),
            block("s3", ["A", "B", "B+C"], [0.2, 0.6], [0.3, 0.35]),
        ]
        bare = gls_fit((b for b in blocks), Network((), ("A", "B", "C")), effects_model)
        fit = gls_fit(blocks, network_of(blocks), effects_model)
        assert bare.rank_X == fit.rank_X == 2
        for field in ("d_hat", "cov_d", "tau2", "Q", "df", "null_space", "components"):
            assert np.array_equal(getattr(bare, field), getattr(fit, field))

    def test_random_effects_uses_estimated_tau2(self):
        blocks = [
            block("s1", ["P", "A"], 0.0, 0.5),
            block("s2", ["P", "A"], 1.0, 0.5),
        ]
        fit = gls_fit(blocks, network_of(blocks), "random")
        assert fit.tau2 == pytest.approx(0.25, abs=1e-12)
        w = np.array([-1.0, 1.0])
        # weights are 1/(0.25 + 0.25) each, so var of the pooled contrast is 0.25
        assert w @ fit.cov_d @ w == pytest.approx(0.25, abs=1e-12)

    def test_unanchored_fit_adapts_to_either_additivity(self):
        # same singles, different multicomponent truth: the fit reproduces
        # whichever set of contrasts generated the data
        def noiseless(multi_vs_e):
            return [
                block("s1", ["E", "A"], 1.2, 0.3),
                block("s2", ["E", "C"], 0.8, 0.3),
                block("s3", ["E", "A+C"], multi_vs_e, 0.3),
                block("s4", ["A", "A+C"], multi_vs_e - 1.2, 0.3),
            ]

        for multi in (2.0, 1.1):  # additive vs E, additive vs B
            blocks = noiseless(multi)
            net = network_of(blocks)
            fit = gls_fit(blocks, net, "fixed")
            idx = {c: i for i, c in enumerate(fit.components)}
            d = fit.d_hat
            assert d[idx["A"]] - d[idx["E"]] == pytest.approx(1.2, abs=1e-8)
            multi_est = d[idx["A"]] + d[idx["C"]] - d[idx["E"]]
            assert multi_est == pytest.approx(multi, abs=1e-8)

    def test_matches_allpairs_weighting_on_two_arm_network(self):
        blocks = [
            block("s1", ["E", "A"], 1.3, 0.3),
            block("s2", ["E", "B"], 0.6, 0.4),
            block("s3", ["A", "B"], -0.5, 0.25),
        ]
        net = network_of(blocks)
        fit = gls_fit(blocks, net, "fixed")
        X = np.vstack([build_U(2, "allpairs") @ incidence_matrix(s.treatments, net.components)
                       for s in net.studies])
        y = np.concatenate([b.y_star for b in blocks])
        w_inv = np.diag(1.0 / np.concatenate([b.se for b in blocks]) ** 2)
        d_ap = np.linalg.pinv(X.T @ w_inv @ X, rtol=1e-12) @ X.T @ w_inv @ y
        assert np.allclose(fit.d_hat, d_ap, atol=1e-10)


POOL = ("A", "B", "C", "D", "A+B", "B+C", "A+C+D")


def random_network_blocks(seed):
    """Ten studies of 2-4 arms, noisy contrasts."""
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(10):
        a = int(rng.integers(2, 5))
        labels = [POOL[j] for j in rng.choice(len(POOL), size=a, replace=False)]
        se_b = rng.uniform(0.05, 0.3)
        se = np.sqrt(se_b**2 + rng.uniform(0.01, 0.2, size=a - 1))
        blocks.append(block(f"s{i}", labels, rng.normal(0.0, 0.6, size=a - 1), se, se_b))
    return blocks


def dense_gls(blocks, net, effects_model):
    """The GLS fit and moment estimator, tau2 = (Q - df) / trace(P Sigma*),
    through dense n x n W, P and Sigma*. The weights are within a few
    hundred-fold of each other, so a pseudoinverse cut at 1e-12 of the largest
    singular value keeps rank(X) of them."""
    X = stack_X(net)
    y = np.concatenate([b.y_star for b in blocks])
    W = np.linalg.inv(stacked_covariance(blocks, 0.0))
    cov = np.linalg.pinv(X.T @ W @ X, rtol=1e-12)
    resid = y - X @ cov @ X.T @ W @ y
    Q = resid @ W @ resid
    df = y.size - np.linalg.matrix_rank(X)
    P = W - W @ X @ cov @ X.T @ W
    trace_P_Sigma = np.trace(P @ stacked_Sigma_star(blocks))
    tau2 = max(0.0, (Q - df) / trace_P_Sigma) if effects_model == "random" else 0.0
    W = np.linalg.inv(stacked_covariance(blocks, tau2))
    cov = np.linalg.pinv(X.T @ W @ X, rtol=1e-12)
    return cov @ X.T @ W @ y, cov, tau2, Q, df


class TestGlsMatchesDense:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), effects_model=st.sampled_from(["fixed", "random"]))
    def test_random_multi_arm_network(self, seed, effects_model):
        blocks = random_network_blocks(seed)
        net = network_of(blocks)
        d_hat, cov, tau2, Q, df = dense_gls(blocks, net, effects_model)
        fit = gls_fit(blocks, net, effects_model)
        assert fit.df == df > 0
        np.testing.assert_allclose(fit.d_hat, d_hat, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(fit.cov_d, cov, rtol=1e-10, atol=1e-10 * np.abs(cov).max())
        assert fit.tau2 == pytest.approx(tau2, rel=1e-10, abs=1e-12)
        assert fit.Q == pytest.approx(Q, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32))
    @example(seed=0)
    def test_random_effects_answer_is_the_gls_at_its_tau2(self, seed):
        # the random-effects solve skips Q and trace(P) and keeps the rest;
        # seed 0 estimates tau2 > 0, so its two passes weigh differently
        blocks = random_network_blocks(seed)
        net = network_of(blocks)
        fit = gls_fit(blocks, net, "random")
        solution = ContrastDesign(blocks, net.components).gls(fit.tau2)
        if seed == 0:
            assert fit.tau2 > 0.0
        assert np.array_equal(fit.d_hat, solution.d_hat)
        assert np.array_equal(fit.cov_d, solution.cov)


@st.composite
def arm_networks(draw):
    """Three to seven studies of 2-4 arms on treatments of POOL, each with A
    at any arm, so that every treatment contrast is estimable; any cell may
    be zero."""
    studies = []
    for i in range(draw(st.integers(3, 7))):
        labels = list(draw(st.permutations(POOL[1:]))[: draw(st.integers(1, 3))])
        labels.insert(draw(st.integers(0, len(labels))), "A")
        arms = []
        for label in labels:
            total = draw(st.integers(1, 200))
            arms.append(ArmRecord(parse_treatment(label), draw(st.integers(0, total)), total))
        studies.append(Study(f"s{i}", tuple(arms)))
    return studies


def arm_gls_fit(studies, components, effects_model):
    """``gls_fit`` of the studies' cc05 contrasts against their first arms."""
    blocks = [arm_to_contrast(s, 0, "cc05") for s in studies]
    return gls_fit(blocks, Network(tuple(studies), components), effects_model)


class TestGlsInvariance:
    """What the model does not see: the order of the studies, which arm is
    each study's baseline, the order of the components and the treatments'
    label text leave the fit as it is, to 1e-10 relative."""

    @staticmethod
    def assert_same_fit(fit, reference, order=None):
        """``fit`` equals ``reference``, whose effects are taken in ``order``."""
        order = np.arange(reference.d_hat.size) if order is None else np.array(order)
        d_hat, cov = reference.d_hat[order], reference.cov_d[np.ix_(order, order)]
        np.testing.assert_allclose(fit.d_hat, d_hat, rtol=1e-10, atol=1e-10 * np.abs(d_hat).max())
        np.testing.assert_allclose(fit.cov_d, cov, rtol=1e-10, atol=1e-10 * np.abs(cov).max())
        assert fit.tau2 == pytest.approx(reference.tau2, rel=1e-10, abs=1e-300)
        assert fit.Q == pytest.approx(reference.Q, rel=1e-10)
        assert fit.df == reference.df

    @settings(max_examples=60, deadline=None)
    @given(arm_networks(), st.sampled_from(["fixed", "random"]), st.data())
    def test_study_order(self, studies, effects_model, data):
        components = build_network(studies).components
        shuffled = data.draw(st.permutations(studies))
        self.assert_same_fit(
            arm_gls_fit(shuffled, components, effects_model),
            arm_gls_fit(studies, components, effects_model),
        )

    @settings(max_examples=60, deadline=None)
    @given(arm_networks(), st.sampled_from(["fixed", "random"]), st.data())
    def test_baseline_arm(self, studies, effects_model, data):
        components = build_network(studies).components
        moved = [_arm_first(s, data.draw(st.integers(0, s.n_arms - 1))) for s in studies]
        self.assert_same_fit(
            arm_gls_fit(moved, components, effects_model),
            arm_gls_fit(studies, components, effects_model),
        )
        # so is the contrast kind's likelihood, at any d and tau2
        designs = [
            ContrastDesign([arm_to_contrast(s, 0, "cc05") for s in records], components)
            for records in (moved, studies)
        ]
        d = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=len(components))
        for tau2 in (0.0, data.draw(st.floats(0.01, 4.0))):
            logpdf = [contrasts.logpdf(d, tau2) for contrasts in designs]
            assert logpdf[0] == pytest.approx(logpdf[1], rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(arm_networks(), st.sampled_from(["fixed", "random"]), st.data())
    def test_component_order(self, studies, effects_model, data):
        components = build_network(studies).components
        order = data.draw(st.permutations(range(len(components))))
        self.assert_same_fit(
            arm_gls_fit(studies, tuple(components[k] for k in order), effects_model),
            arm_gls_fit(studies, components, effects_model),
            order,
        )

    @settings(max_examples=60, deadline=None)
    @given(arm_networks(), st.sampled_from(["fixed", "random"]))
    def test_treatment_label_text(self, studies, effects_model):
        components = build_network(studies).components
        relabelled = [
            Study(s.id, tuple(
                ArmRecord(Treatment(a.treatment.components, f"{s.id} arm {j}"), a.events, a.total)
                for j, a in enumerate(s.arms)
            ))
            for s in studies
        ]
        self.assert_same_fit(
            arm_gls_fit(relabelled, components, effects_model),
            arm_gls_fit(studies, components, effects_model),
        )


def sparse_network_blocks(seed):
    """Two to five two-arm studies on treatments drawn from POOL: often
    disconnected at the treatment level, and then identified or not."""
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(int(rng.integers(2, 6))):
        labels = [POOL[j] for j in rng.choice(len(POOL), size=2, replace=False)]
        blocks.append(block(f"s{i}", labels, rng.normal(0.0, 0.6), rng.uniform(0.1, 0.4)))
    return blocks


def estimable_and_full_rank(net):
    """Whether every treatment contrast lies in the row space of X, and
    whether X has full column rank."""
    X = stack_X(net)
    M = incidence_matrix(net.treatments, net.components)
    rank = np.linalg.matrix_rank(X)
    estimable = np.linalg.matrix_rank(np.vstack([X, M[1:] - M[0]])) == rank
    return estimable, rank == net.n_components


class TestEstimabilityByRank:
    """The rank of the design, not treatment connectivity, decides every refusal."""

    def test_sparse_networks_are_often_disconnected(self):
        nets = [network_of(sparse_network_blocks(seed)) for seed in range(200)]
        disconnected = [net for net in nets if not net.connected]
        share = len(disconnected) / len(nets)
        assert share > 0.2, share
        # some of them identify every treatment contrast all the same
        assert any(estimable_and_full_rank(net)[0] for net in disconnected)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), effects_model=st.sampled_from(["fixed", "random"]))
    def test_refusals_follow_rank(self, seed, effects_model):
        blocks = sparse_network_blocks(seed)
        net = network_of(blocks)
        estimable, full_rank = estimable_and_full_rank(net)
        try:
            fit = gls_fit(blocks, net, effects_model)
        except NotIdentifiable:
            assert not estimable
        else:
            assert estimable
            assert set(p_scores(fit, net.treatments)) == set(net.treatments)
        spec = bayes.ModelSpec("unanchored-contrast", effects_model)
        try:
            bayes.build_model(spec, blocks, net)
        except NotIdentifiable:
            assert not full_rank
        else:
            assert full_rank


def contrast_se(fit, a, b):
    """Standard error of the contrast of treatment b versus treatment a."""
    w = contrast_vector(parse_treatment(a), parse_treatment(b), fit.components)
    return np.sqrt(w @ fit.cov_d @ w)


class TestWeightsDoNotDecideRank:
    """The rank and null space of X, not the study weights, decide GLS's
    pseudoinverse and which contrasts it estimates."""

    @staticmethod
    def rank_deficient_blocks(se_b=1 / np.sqrt(3000), se_c=np.sqrt(3000)):
        # single-component treatments: every row of X sums to zero (rank 2 of 3)
        return [
            block("s1", ["A", "B"], 0.3, se_b, se_baseline=0.0),
            block("s2", ["A", "B"], 0.31, se_b, se_baseline=0.0),
            block("s3", ["A", "C"], -0.2, se_c, se_baseline=0.0),
        ]

    def test_rank_deficient_network_with_unequal_weights(self):
        blocks = self.rank_deficient_blocks()
        net = network_of(blocks)
        fit = gls_fit(blocks, net, "fixed")
        assert fit.rank_X == 2 and fit.null_space.shape == (3, 1)
        assert contrast_se(fit, "A", "C") == pytest.approx(np.sqrt(3000), rel=1e-6)
        assert contrast_se(fit, "A", "B") == pytest.approx(np.sqrt(1 / 6000), rel=1e-6)
        assert set(p_scores(fit, net.treatments)) == set(net.treatments)

    def test_full_rank_network_with_unequal_weights(self):
        blocks = [
            block("s1", ["A", "B"], 0.3, 0.001, se_baseline=0.0),
            block("s2", ["A", "A+B"], 0.2, 0.001, se_baseline=0.0),
            block("s3", ["A", "C"], -0.2, 1000.0, se_baseline=0.0),
        ]
        fit = gls_fit(blocks, network_of(blocks), "fixed")
        assert fit.rank_X == 3 and fit.null_space.shape == (3, 0)
        assert contrast_se(fit, "A", "C") == pytest.approx(1000.0, rel=1e-6)

    def test_cov_is_the_pseudoinverse_of_the_information(self):
        # the four Penrose conditions on a rank-deficient fit
        blocks = self.rank_deficient_blocks(0.2, 0.3)
        net = network_of(blocks)
        fit = gls_fit(blocks, net, "fixed")
        design = ContrastDesign(blocks, net.components)
        m = design.X.T @ design.weigh(0.0, design.X)
        p = fit.cov_d
        assert np.allclose(m @ p @ m, m, atol=1e-10 * np.abs(m).max())
        assert np.allclose(p @ m @ p, p, atol=1e-10 * np.abs(p).max())
        assert np.allclose((m @ p).T, m @ p, atol=1e-10)
        assert np.allclose((p @ m).T, p @ m, atol=1e-10)

    def test_non_finite_weights_raise(self):
        # se^2 = 1e-320 is subnormal: its weight 1 / se^2 overflows
        blocks = self.rank_deficient_blocks(1e-160, 0.3)
        with pytest.warns(RuntimeWarning), pytest.raises(CnmaError, match="non-finite"):
            gls_fit(blocks, network_of(blocks), "fixed")


class TestEstimateTau2:
    """The moment estimate of tau2 that gls_fit reports under random effects."""

    def test_classic_moment_case(self):
        blocks = [
            block("s1", ["P", "A"], 0.0, 0.5),
            block("s2", ["P", "A"], 1.0, 0.5),
        ]
        fit = gls_fit(blocks, network_of(blocks), "random")
        assert fit.Q == pytest.approx(2.0, abs=1e-12)
        assert fit.df == 1
        assert fit.tau2 == pytest.approx(0.25, abs=1e-12)
        assert not fit.tau2_truncated

    def test_zero_residuals(self):
        blocks = [
            block("s1", ["P", "A"], 0.7, 0.5),
            block("s2", ["P", "A"], 0.7, 0.5),
        ]
        fit = gls_fit(blocks, network_of(blocks), "random")
        assert fit.Q == pytest.approx(0.0, abs=1e-12)
        assert fit.tau2 == 0.0
        assert fit.tau2_truncated

    def test_q_below_df_truncates(self):
        blocks = [
            block("s1", ["P", "A"], 0.70, 0.5),
            block("s2", ["P", "A"], 0.75, 0.5),
        ]
        fit = gls_fit(blocks, network_of(blocks), "random")
        assert fit.Q < fit.df
        assert fit.tau2 == 0.0
        assert fit.tau2_truncated

    def test_saturated_network_flagged(self):
        blocks = [block("s1", ["P", "A"], 0.5, 0.2)]
        fit = gls_fit(blocks, network_of(blocks), "random")
        assert fit.df <= 0
        assert fit.tau2 == 0.0
        assert fit.tau2_truncated


class TestPScores:
    @staticmethod
    def synthetic_fit(d_hat, cov, components):
        return FreqFit(
            d_hat=np.asarray(d_hat, dtype=float),
            cov_d=np.asarray(cov, dtype=float),
            tau2=0.0,
            Q=0.0,
            df=0,
            null_space=np.zeros((len(components), 0)),
            components=tuple(components),
            effects_model="fixed",
            tau2_truncated=False,
        )

    def test_tied_pair(self):
        fit = self.synthetic_fit([0.3, 0.3], 0.5 * np.eye(2), ("A", "B"))
        scores = p_scores(fit, [parse_treatment("A"), parse_treatment("B")])
        assert list(scores.values()) == pytest.approx([0.5, 0.5])

    def test_total_separation(self):
        fit = self.synthetic_fit([50.0, 0.0], 0.5 * np.eye(2), ("A", "B"))
        scores = p_scores(fit, [parse_treatment("A"), parse_treatment("B")])
        assert scores[parse_treatment("A")] == pytest.approx(1.0, abs=1e-9)
        assert scores[parse_treatment("B")] == pytest.approx(0.0, abs=1e-9)

    def test_equal_ten_se_separations(self):
        fit = self.synthetic_fit([20.0, 10.0, 0.0], 0.5 * np.eye(3), ("A", "B", "C"))
        treats = [parse_treatment(x) for x in "ABC"]
        scores = p_scores(fit, treats)
        assert scores[treats[0]] == pytest.approx(1.0, abs=1e-6)
        assert scores[treats[1]] == pytest.approx(0.5, abs=1e-6)
        assert scores[treats[2]] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("direction", ["higher_better", "Higher-better", "lower", ""])
    def test_unknown_direction_rejected(self, direction):
        fit = self.synthetic_fit([1.0, 0.0], 0.5 * np.eye(2), ("A", "B"))
        with pytest.raises(CnmaError, match="direction"):
            p_scores(fit, [parse_treatment("A"), parse_treatment("B")], direction)

    def test_needs_two_treatments(self):
        fit = self.synthetic_fit([0.3, 0.1], 0.5 * np.eye(2), ("A", "B"))
        with pytest.raises(CnmaError, match=">= 2 treatments"):
            p_scores(fit, [parse_treatment("A")])

    def test_zero_se_between_distinct_raises(self):
        fit = self.synthetic_fit([1.0, 0.0], np.zeros((2, 2)), ("A", "B"))
        with pytest.raises(CnmaError):
            p_scores(fit, [parse_treatment("A"), parse_treatment("B")])

    @pytest.mark.parametrize("labels", ["ABA", "ABAC", "BB", "ABCC"])
    def test_repeated_treatment_rejected(self, labels):
        fit = self.synthetic_fit([0.3, 0.1, 0.0], 0.5 * np.eye(3), ("A", "B", "C"))
        repeated = next(x for i, x in enumerate(labels) if x in labels[:i])
        with pytest.raises(CnmaError, match=f"'{repeated}' is listed more than once"):
            p_scores(fit, [parse_treatment(x) for x in labels])

    def test_rank_deficient_fit_ranks_estimable_treatments_only(self):
        # single-component treatments only: connected, but every contrast sums
        # to zero over the components, so X has rank 2 for 3 components; the
        # treatments' contrasts are estimable, a contrast with A+B is not
        blocks = [
            block("s1", ["A", "B"], 0.3, 0.2),
            block("s2", ["B", "C"], -0.2, 0.25),
            block("s3", ["A", "C"], 0.1, 0.3),
            block("s4", ["A", "B", "C"], [0.2, 0.0], [0.2, 0.2]),
            block("s5", ["B", "C"], -0.1, 0.2),
        ]
        net = network_of(blocks)
        fit = gls_fit(blocks, net, "random")
        assert fit.rank_X == 2 < net.n_components
        scores = p_scores(fit, net.treatments)
        assert list(scores) == list(net.treatments)
        # each pair's two probabilities sum to one
        assert sum(scores.values()) == pytest.approx(len(scores) / 2, abs=1e-12)
        with pytest.raises(NotIdentifiable, match="'A\\+B' versus 'A'"):
            p_scores(fit, net.treatments + (parse_treatment("A+B"),))

    def test_matches_pairwise_contrasts(self):
        # each score is the mean over the other treatments of the normal
        # probability of a higher effect, from the contrast's mean and variance
        blocks = random_network_blocks(3)
        net = network_of(blocks)
        fit = gls_fit(blocks, net, "random")
        scores = p_scores(fit, net.treatments, "lower-better")
        M = incidence_matrix(net.treatments, net.components)
        for k, t in enumerate(net.treatments):
            probs = []
            for l in range(len(M)):
                if l != k:
                    w = M[k] - M[l]
                    z = (w @ fit.d_hat) / np.sqrt(w @ fit.cov_d @ w)
                    probs.append(norm.cdf(-z))
            assert scores[t] == pytest.approx(np.mean(probs), abs=1e-12)

    @pytest.mark.parametrize("direction", ["higher-better", "lower-better"])
    def test_equal_sucra_of_normal_draws(self, direction):
        # one score with two estimators (Rücker & Schwarzer 2015): the P-score
        # is the SUCRA of draws from the fit's normal law N(d_hat, cov_d)
        blocks = random_network_blocks(3)
        net = network_of(blocks)
        fit = gls_fit(blocks, net, "random")
        z = np.random.default_rng(5).standard_normal((50_000, fit.d_hat.size))
        d = fit.d_hat + z @ np.linalg.cholesky(fit.cov_d).T
        M = incidence_matrix(net.treatments, net.components)
        ranked = sucra(d @ M.T, net.treatments, direction)
        scores = p_scores(fit, net.treatments, direction)
        assert list(scores) == list(ranked)
        assert max(abs(scores[t] - ranked[t]) for t in scores) < 0.005


class TestCovCalibration:
    def test_sampling_variance_within_ten_percent(self):
        rng = np.random.default_rng(11)
        d_true = np.array([0.0, 0.6])
        se = 0.3
        w = np.array([-1.0, 1.0])
        ests = []
        reported = None
        for _ in range(2000):
            y1 = rng.normal(0.6, se)
            y2 = rng.normal(0.6, se)
            blocks = [
                block("s1", ["E", "A"], y1, se),
                block("s2", ["E", "A"], y2, se),
            ]
            fit = gls_fit(blocks, network_of(blocks), "fixed")
            ests.append(w @ fit.d_hat)
            reported = w @ fit.cov_d @ w
        empirical = np.var(ests, ddof=1)
        assert abs(empirical - reported) / reported < 0.10
