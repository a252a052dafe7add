import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from cnma import bayes
from cnma.design import incidence_matrix, stack_X
from cnma.errors import CnmaError, NotIdentifiable
from cnma.freq import FreqFit, gls_fit, p_scores
from cnma.mcmc import McmcConfig
from cnma.network import ArmRecord, ContrastBlock, Study, build_network, parse_treatment
from cnma.numerics import pinv
from dense import block_covariance, build_Sigma_star, build_U


def block(study_id, labels, y, se, baseline=0, se_baseline=0.05):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    se = np.atleast_1d(np.asarray(se, dtype=float))
    return ContrastBlock(
        study_id=study_id,
        baseline_arm=baseline,
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
        d_ap = pinv(X.T @ w_inv @ X) @ X.T @ w_inv @ y
        assert np.allclose(fit.d_hat, d_ap, atol=1e-10)


POOL = ("A", "B", "C", "D", "A+B", "B+C", "A+C+D")


def random_network_blocks(seed):
    """Ten studies of 2-4 arms, baseline arm 0, noisy contrasts."""
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(10):
        a = int(rng.integers(2, 5))
        labels = [POOL[j] for j in rng.choice(len(POOL), size=a, replace=False)]
        se_b = rng.uniform(0.05, 0.3)
        se = np.sqrt(se_b**2 + rng.uniform(0.01, 0.2, size=a - 1))
        blocks.append(block(f"s{i}", labels, rng.normal(0.0, 0.6, size=a - 1), se, 0, se_b))
    return blocks


def dense_gls(blocks, net, effects_model):
    """The GLS fit and moment estimator through dense n x n W and P."""
    X = stack_X(net)
    y = np.concatenate([b.y_star for b in blocks])

    def weights(tau2):
        W = np.zeros((y.size, y.size))
        at = 0
        for b in blocks:
            m = b.y_star.size
            cov = block_covariance(b) + tau2 * build_Sigma_star(b.n_arms)
            W[at : at + m, at : at + m] = np.linalg.inv(cov)
            at += m
        return W

    W = weights(0.0)
    cov = pinv(X.T @ W @ X)
    resid = y - X @ cov @ X.T @ W @ y
    Q = resid @ W @ resid
    df = y.size - np.linalg.matrix_rank(X)
    P = W - W @ X @ cov @ X.T @ W
    tau2 = max(0.0, (Q - df) / np.trace(P)) if effects_model == "random" else 0.0
    W = weights(tau2)
    cov = pinv(X.T @ W @ X)
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
            rank_X=len(components),
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
