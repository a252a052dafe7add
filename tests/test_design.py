import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnma.design import ContrastDesign, incidence_matrix, stack_X
from cnma.errors import CnmaError, UnknownComponent
from cnma.network import (
    ArmRecord,
    ContrastBlock,
    Network,
    Study,
    Treatment,
    arm_to_contrast,
    build_network,
    parse_treatment,
)
from dense import (
    block_covariance,
    build_Sigma,
    build_Sigma_star,
    build_U,
    contrast_design_arrays,
    incidence_rows,
    mvn_logpdf,
    stacked_Sigma_star,
    stacked_covariance,
)


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
    net = Network((study,), ("Usual", "Edu", "Beh", "Cog", "Rel", "Sup"))
    return study, net


# equal treatments under other labels: the incidence reads the components only
LABELLED = tuple(
    Treatment(parse_treatment(lab).components, label)
    for lab, label in [("A", ""), ("A+B", ""), ("B+A", "B and A"), ("C+D", ""),
                       ("A+C+D", ""), ("D+C", "D then C"), ("B", "")]
)


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
        net = Network((study,), ("Placebo", "A", "B"))
        V = incidence_matrix(study.treatments, net.components)
        assert np.array_equal(V, [[1, 0, 0], [0, 1, 0]])

    def test_all_components_row_of_ones(self):
        study = study_from(["A+B+C", "A"])
        net = Network((study,), ("A", "B", "C"))
        assert np.array_equal(incidence_matrix(study.treatments, net.components)[0], [1, 1, 1])

    def test_row_sums_equal_component_counts(self, chd_trial23):
        study, net = chd_trial23
        V = incidence_matrix(study.treatments, net.components)
        assert list(V.sum(axis=1)) == [3, 2, 1]

    @settings(max_examples=100, deadline=None)
    @given(
        treatments=st.lists(st.sampled_from(LABELLED), max_size=12),
        order=st.permutations(("A", "B", "C", "D", "E")),
    )
    @example(treatments=[], order=("A", "B", "C", "D", "E"))
    def test_rows_equal_the_dense_rows(self, treatments, order):
        # repeats, equal treatments under other labels, the empty list and a
        # component no treatment has: one row per entry, whatever shares it
        V = incidence_matrix(treatments, order)
        assert V.shape == (len(treatments), len(order))
        assert np.array_equal(V, incidence_rows(treatments, order))

    @pytest.mark.parametrize(
        "treatments, error, message",
        [
            (["A", "Z", 5], UnknownComponent, "'Z' not in the component order"),
            (["A", 5, "Z"], CnmaError, "5 is not a Treatment"),
        ],
    )
    def test_first_bad_entry_refused(self, treatments, error, message):
        # a label stands for its parsed treatment; the rest enter as they are
        treatments = [parse_treatment(t) if isinstance(t, str) else t for t in treatments]
        with pytest.raises(error, match=message):
            incidence_matrix(treatments, ("A", "B"))


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
        net = Network((study,), ("Placebo", "A", "B"))
        assert np.array_equal(stack_X(net), [[-1, 1, 0]])

    def test_multicomponent_vs_single(self):
        study = study_from(["C", "A+B"])
        net = Network((study,), ("A", "B", "C"))
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
        net = Network((study,), ("E", "A", "B", "C"))
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
    """1-4 contrast blocks of 2-5 arms with random se, se_baseline and treatment
    order, so any treatment may be the baseline."""
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
                y_star=np.array(y),
                se=np.sqrt(se_b**2 + np.array(extra)),
                se_baseline=se_b,
                treatments=tuple(POOL[j] for j in picks),
            )
        )
    return blocks


def _mixed_block(study_id, labels, seed):
    a = len(labels)
    rng = np.random.default_rng(seed)
    se_b = rng.uniform(0.05, 0.3)
    return ContrastBlock(
        study_id=study_id,
        y_star=rng.normal(size=a - 1),
        se=np.sqrt(se_b**2 + rng.uniform(0.01, 0.2, size=a - 1)),
        se_baseline=se_b,
        treatments=tuple(parse_treatment(lab) for lab in labels),
    )


# one network of 2-, 3- and 4-arm blocks
MIXED_BLOCKS = [
    _mixed_block("two", ["A", "B"], 1),
    _mixed_block("three", ["B+C", "A", "D"], 2),
    _mixed_block("four", ["A+C+D", "B", "C", "A+B"], 3),
    _mixed_block("two again", ["D", "A+B"], 4),
]


def dense_reference(blocks, tau2):
    """Per-block rows, contrasts and the dense block-diagonal weight matrix W."""
    net = build_network(
        Study(b.study_id, tuple(ArmRecord(t, 1, 10) for t in b.treatments)) for b in blocks
    )
    arrays = contrast_design_arrays(blocks, net.components)
    W = np.linalg.inv(stacked_covariance(blocks, tau2))
    return net, arrays["X"], arrays["y"], W


@st.composite
def arm_studies(draw):
    """A study of 2-5 arms of distinct treatments; any cell may be zero."""
    arms = []
    for j in draw(st.permutations(range(len(POOL))))[: draw(st.integers(2, 5))]:
        total = draw(st.integers(1, 200))
        arms.append(ArmRecord(POOL[j], draw(st.integers(0, total)), total))
    return Study("s", tuple(arms))


@settings(max_examples=100, deadline=None)
@given(study=arm_studies())
def test_every_baseline_keeps_the_dense_contrasts(study):
    # arm_to_contrast moves arm b first; the design's rows, contrasts and
    # block covariance are U_b V, U_b (log-odds) and U_b diag(var) U_b',
    # U_b taking every other arm minus arm b in arm order
    net = build_network([study])
    V = incidence_matrix(study.treatments, net.components)
    corrected = 0.5 * any(arm.events in (0, arm.total) for arm in study.arms)
    r = np.array([arm.events for arm in study.arms]) + corrected
    s = np.array([arm.total - arm.events for arm in study.arms]) + corrected
    for b in range(study.n_arms):
        U = build_U(study.n_arms, "baseline", b)
        design = ContrastDesign([arm_to_contrast(study, b, "cc05")], net.components)
        cov = U @ np.diag(1.0 / r + 1.0 / s) @ U.T
        assert np.array_equal(design.X, U @ V)
        np.testing.assert_allclose(design.y, U @ np.log(r / s), rtol=1e-12, atol=1e-12)
        close(np.diag(design.within) + design.shared[0], cov, cov)


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
        actual = ContrastDesign(blocks, net.components).logpdf(d, sigma**2)
        assert actual == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(blocks=contrast_blocks(), sigma=st.floats(0.0, 2.0))
    def test_weighted_products_match_dense(self, blocks, sigma):
        tau2 = sigma**2
        net, X, y, W = dense_reference(blocks, tau2)
        design = ContrastDesign(blocks, net.components)
        assert np.array_equal(design.X, X)
        assert np.array_equal(design.y, y)

        xtwx = X.T @ W @ X
        xtwy = X.T @ W @ y
        abs_xtwy = np.abs(X.T) @ np.abs(W) @ np.abs(y)
        close(design.X.T @ design.weigh(tau2, design.X), xtwx, np.abs(xtwx))
        close(design.X.T @ design.weigh(tau2, design.y), xtwy, abs_xtwy)

        # these weights differ at most 125-fold, so a cut at 1e-12 of the largest
        # singular value keeps exactly rank(X) of them, as ``gls`` does
        cov = np.linalg.pinv(xtwx, rtol=1e-12)
        d_hat = cov @ xtwy
        resid = y - X @ d_hat
        P = W - W @ X @ cov @ X.T @ W
        Sigma = stacked_Sigma_star(blocks)
        solution = design.gls(tau2)
        close(solution.d_hat, d_hat, np.abs(cov) @ abs_xtwy)
        close(solution.cov, cov, np.abs(cov))
        close(solution.Q, resid @ W @ resid, np.abs(y) @ np.abs(W) @ np.abs(y))
        close(solution.trace_P_Sigma, np.trace(P @ Sigma), np.trace(W @ Sigma))

    @settings(max_examples=100, deadline=None)
    @given(blocks=contrast_blocks(), order=st.permutations(("A", "B", "C", "D", "E")))
    @example(blocks=MIXED_BLOCKS, order=("A", "B", "C", "D", "E"))
    def test_stacked_arrays_equal_the_per_block_reference(self, blocks, order):
        design = ContrastDesign(iter(blocks), order)
        for name, expected in contrast_design_arrays(blocks, order).items():
            assert np.array_equal(getattr(design, name), expected), name

    @settings(max_examples=100, deadline=None)
    @given(blocks=contrast_blocks())
    def test_rank_and_null_space_of_X(self, blocks):
        # one block of two arms has fewer rows than components; many blocks
        # may have more
        net, X, _, _ = dense_reference(blocks, 0.0)
        design = ContrastDesign(blocks, net.components)
        N = design.null_space
        assert design.rank == np.linalg.matrix_rank(X)
        assert N.shape == (net.n_components, net.n_components - design.rank)
        assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-12)
        assert np.allclose(X @ N, 0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        blocks=contrast_blocks(),
        sigmas=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
        extra=st.lists(st.integers(0, 2), max_size=6),
        seed=st.integers(0, 2**32),
    )
    def test_cached_weights_equal_a_fresh_design(self, blocks, sigmas, extra, seed):
        # tau2 a, b, a, c, b, a, ... hits the most recent entry, the other entry
        # and a dropped one; each step calls the four readers in a different
        # order
        net = dense_reference(blocks, 0.0)[0]
        d = np.random.default_rng(seed).normal(size=net.n_components)
        design = ContrastDesign(blocks, net.components)

        def results(design, tau2, order):
            out = {
                "logpdf": lambda: design.logpdf(d, tau2),
                "weigh": lambda: design.weigh(tau2, design.y),
                "information": lambda: design.X.T @ design.weigh(tau2, design.X),
                "gls": lambda: design.gls(tau2),
            }
            return {name: out[name]() for name in order}

        names = ["logpdf", "weigh", "information", "gls"]
        for step, i in enumerate([0, 1, 0, 2, 1, 0, *extra]):
            tau2 = sigmas[i] ** 2
            order = names[step % 4 :] + names[: step % 4]
            cached = results(design, tau2, order)
            fresh_design = ContrastDesign(blocks, net.components)
            fresh = results(fresh_design, tau2, names)
            assert cached["logpdf"] == fresh["logpdf"]
            assert np.array_equal(cached["weigh"], fresh["weigh"])
            assert np.array_equal(cached["information"], fresh["information"])
            for a, b in zip(cached["gls"], fresh["gls"]):
                assert np.array_equal(a, b)
            w, g, logdet = design._weights(tau2)
            for a, b in zip((w, g, logdet), fresh_design._weights(tau2)):
                assert np.array_equal(a, b)
            for array in (w, g):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_used_design_is_freed_by_reference_counting(self):
        # the weights cache holds the design's arrays, not the design, so no
        # reference cycle keeps a design alive until the garbage collector runs
        study = study_from(["A", "B", "A+B"])
        net = build_network([study])
        design = ContrastDesign([arm_to_contrast(study, 0, "cc05")], net.components)
        design.gls(0.0)
        design.logpdf(np.zeros(net.n_components), 0.5)
        ref = weakref.ref(design)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del design
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_no_blocks_rejected(self):
        net = build_network([study_from(["A", "B"])])
        with pytest.raises(CnmaError):
            ContrastDesign([], net.components)
