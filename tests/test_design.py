import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnma.design import ContrastDesign, incidence_matrix, stack_X
from cnma.errors import CnmaError
from cnma.network import ArmRecord, ContrastBlock, Study, build_network, parse_treatment
from cnma.numerics import pinv
from dense import block_covariance, build_Sigma, build_Sigma_star, build_U, mvn_logpdf


def study_from(labels, study_id="s"):
    return Study(
        id=study_id,
        arms=tuple(ArmRecord(parse_treatment(lab), 1, 10) for lab in labels),
    )


@pytest.fixture
def chd_trial23():
    """Three-arm trial: Edu+Cog+Rel vs Edu+Rel vs Usual, with the full
    six-component dictionary in its conventional column order."""
    study = study_from(["Edu+Cog+Rel", "Edu+Rel", "Usual"], "t23")
    net = build_network(
        [study], components=("Usual", "Edu", "Beh", "Cog", "Rel", "Sup")
    )
    return study, net


class TestBuildV:
    # a study's V is the rows of its arms in the treatment x component incidence
    def test_three_arm_multicomponent(self, chd_trial23):
        study, net = chd_trial23
        V = incidence_matrix(study.treatments, net.components)
        expected = np.array(
            [
                [0, 1, 0, 1, 1, 0],
                [0, 1, 0, 0, 1, 0],
                [1, 0, 0, 0, 0, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(V, expected)

    def test_placebo_vs_a(self):
        study = study_from(["Placebo", "A"])
        net = build_network([study], components=("Placebo", "A", "B"))
        V = incidence_matrix(study.treatments, net.components)
        assert np.array_equal(V, [[1, 0, 0], [0, 1, 0]])

    def test_all_components_row_of_ones(self):
        study = study_from(["A+B+C", "A"])
        net = build_network([study], components=("A", "B", "C"))
        assert np.array_equal(incidence_matrix(study.treatments, net.components)[0], [1, 1, 1])

    def test_row_sums_equal_component_counts(self, chd_trial23):
        study, net = chd_trial23
        V = incidence_matrix(study.treatments, net.components)
        assert list(V.sum(axis=1)) == [3, 2, 1]


class TestBuildU:
    def test_two_arm_allpairs(self):
        assert np.array_equal(build_U(2, "allpairs"), [[-1, 1]])

    def test_three_arm_baseline(self):
        assert np.array_equal(
            build_U(3, "baseline", 0), [[-1, 1, 0], [-1, 0, 1]]
        )

    def test_three_arm_allpairs_count(self):
        U = build_U(3, "allpairs")
        assert U.shape == (3, 3)
        assert np.array_equal(U, [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])

    def test_rows_sum_to_zero_one_plus_one_minus(self):
        for a in range(2, 6):
            for mode in ("allpairs", "baseline"):
                U = build_U(a, mode)
                assert np.all(U.sum(axis=1) == 0)
                assert np.all((U == 1).sum(axis=1) == 1)
                assert np.all((U == -1).sum(axis=1) == 1)

    def test_baseline_column_all_minus_one(self):
        U = build_U(4, "baseline", 0)
        assert np.all(U[:, 0] == -1)

    def test_baseline_out_of_range(self):
        with pytest.raises(CnmaError):
            build_U(3, "baseline", 3)


class TestSigma:
    def test_three_arm(self):
        expected = [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]]
        assert np.array_equal(build_Sigma(3), expected)

    def test_two_arm(self):
        assert np.array_equal(build_Sigma(2), [[1, 0.5], [0.5, 1]])

    def test_eigenvalues(self):
        for a in range(2, 8):
            vals = np.sort(np.linalg.eigvalsh(build_Sigma(a)))
            assert vals[-1] == pytest.approx((a + 1) / 2, abs=1e-12)
            assert np.allclose(vals[:-1], 0.5, atol=1e-12)

    def test_sigma_star(self):
        assert np.array_equal(build_Sigma_star(3), [[1, 0.5], [0.5, 1]])
        assert np.array_equal(build_Sigma_star(2), [[1.0]])

    def test_contrast_projection_identity(self):
        # U* Sigma U*' == Sigma* exactly (compound symmetry is preserved
        # by differencing against a common arm)
        a = 4
        U = build_U(a, "baseline", 0)
        lhs = U @ build_Sigma(a) @ U.T
        assert np.max(np.abs(lhs - build_Sigma_star(a))) < 1e-14


class TestStackX:
    def test_single_study_row(self):
        study = study_from(["Placebo", "A"])
        net = build_network([study], components=("Placebo", "A", "B"))
        assert np.array_equal(stack_X(net), [[-1, 1, 0]])

    def test_multicomponent_vs_single(self):
        study = study_from(["C", "A+B"])
        net = build_network([study], components=("A", "B", "C"))
        assert np.array_equal(stack_X(net), [[1, 1, -1]])

    def test_duplicated_study_duplicates_row(self):
        net = build_network(
            [study_from(["P", "A"], "s1"), study_from(["P", "A"], "s2")]
        )
        X = stack_X(net)
        assert X.shape == (2, 2)
        assert np.array_equal(X[0], X[1])

    def test_row_sums_are_component_count_differences(self, *_):
        study = study_from(["E", "A+C+D"])
        net = build_network([study])
        X = stack_X(net)
        assert X.sum() == pytest.approx(3 - 1)


class TestDesignSet:
    def test_anchored_unanchored_reparameterization(self):
        # For any study, V d - (V1 d1 + rowsums(V) * level_of_anchor) == 0
        # when d1_k = d_k - d_anchor, i.e. the two parameterizations give
        # the same arm predictors up to the study baseline.
        rng = np.random.default_rng(7)
        study = study_from(["E", "A+C", "B"], "s1")
        net = build_network([study], components=("E", "A", "B", "C"))
        V = incidence_matrix(study.treatments, net.components)
        V1 = np.delete(V, 0, axis=1)
        d = rng.normal(size=4)
        d_anchor = d[0]
        d1 = np.delete(d, 0) - d_anchor
        lhs = V @ d
        rhs = V1 @ d1 + V.sum(axis=1) * d_anchor
        assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(a=st.integers(2, 6))
def test_allpairs_row_count(a):
    assert build_U(a, "allpairs").shape == (a * (a - 1) // 2, a)


POOL = tuple(parse_treatment(lab) for lab in ("A", "B", "C", "D", "A+B", "B+C", "A+C+D"))


@st.composite
def contrast_blocks(draw):
    """1-4 contrast blocks of 2-5 arms with random se, se_baseline and baseline arm."""
    blocks = []
    for i in range(draw(st.integers(1, 4))):
        a = draw(st.integers(2, 5))
        picks = draw(st.permutations(range(len(POOL))))[:a]
        se_b = draw(st.floats(0.0, 0.5))
        extra = draw(st.lists(st.floats(0.01, 1.0), min_size=a - 1, max_size=a - 1))
        y_value = st.floats(-2.0, 2.0, allow_subnormal=False)
        y = draw(st.lists(y_value, min_size=a - 1, max_size=a - 1))
        blocks.append(
            ContrastBlock(
                study_id=f"s{i}",
                baseline_arm=draw(st.integers(0, a - 1)),
                y_star=np.array(y),
                se=np.sqrt(se_b**2 + np.array(extra)),
                se_baseline=se_b,
                treatments=tuple(POOL[j] for j in picks),
            )
        )
    return blocks


def dense_reference(blocks, tau2):
    """Per-block rows, contrasts and the dense block-diagonal weight matrix W."""
    net = build_network(
        Study(b.study_id, tuple(ArmRecord(t, 1, 10) for t in b.treatments)) for b in blocks
    )
    X = np.vstack(
        [
            incidence_matrix(
                [t for j, t in enumerate(b.treatments) if j != b.baseline_arm],
                net.components,
            )
            - incidence_matrix([b.treatments[b.baseline_arm]], net.components)
            for b in blocks
        ]
    )
    y = np.concatenate([b.y_star for b in blocks])
    W = np.zeros((y.size, y.size))
    at = 0
    for b in blocks:
        m = b.y_star.size
        cov = block_covariance(b) + tau2 * build_Sigma_star(b.n_arms)
        W[at : at + m, at : at + m] = np.linalg.inv(cov)
        at += m
    return net, X, y, W


def close(actual, expected, scale):
    """Equal within 1e-10 relative, or 1e-10 of ``scale``, the size of the
    terms that cancel in ``expected``."""
    np.testing.assert_allclose(actual, expected, rtol=1e-10, atol=1e-10 * np.max(scale))


class TestContrastDesign:
    @settings(max_examples=200, deadline=None)
    @given(blocks=contrast_blocks(), sigma=st.floats(0.0, 2.0), seed=st.integers(0, 2**32))
    def test_logpdf_matches_dense_mvn(self, blocks, sigma, seed):
        net, X, _, _ = dense_reference(blocks, 0.0)
        d = np.random.default_rng(seed).normal(size=net.n_components)
        expected, at = 0.0, 0
        for b in blocks:
            m = b.y_star.size
            cov = block_covariance(b) + sigma**2 * build_Sigma_star(b.n_arms)
            expected += mvn_logpdf(b.y_star, X[at : at + m] @ d, cov)
            at += m
        actual = ContrastDesign(blocks, net).logpdf(d, sigma**2)
        assert actual == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(blocks=contrast_blocks(), sigma=st.floats(0.0, 2.0))
    def test_weighted_products_match_dense(self, blocks, sigma):
        tau2 = sigma**2
        net, X, y, W = dense_reference(blocks, tau2)
        design = ContrastDesign(blocks, net)
        assert np.array_equal(design.X, X)
        assert np.array_equal(design.y, y)

        xtwx = X.T @ W @ X
        xtwy = X.T @ W @ y
        abs_xtwy = np.abs(X.T) @ np.abs(W) @ np.abs(y)
        close(design.information(tau2), xtwx, np.abs(xtwx))
        close(design.X.T @ design.weigh(tau2, design.y), xtwy, abs_xtwy)

        cov = pinv(xtwx)
        d_hat = cov @ xtwy
        resid = y - X @ d_hat
        P = W - W @ X @ cov @ X.T @ W
        solution = design.gls(tau2)
        close(solution.d_hat, d_hat, np.abs(cov) @ abs_xtwy)
        close(solution.cov, cov, np.abs(cov))
        close(solution.Q, resid @ W @ resid, np.abs(y) @ np.abs(W) @ np.abs(y))
        close(solution.trace_P, np.trace(P), np.trace(W))

    def test_no_blocks_rejected(self):
        net = build_network([study_from(["A", "B"])])
        with pytest.raises(CnmaError):
            ContrastDesign([], net)
