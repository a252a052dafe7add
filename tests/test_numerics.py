import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnma import numerics
from dense import mvn_logpdf
from cnma.errors import CnmaError, NotPositiveDefinite


class TestPinv:
    def test_identity(self):
        assert np.allclose(numerics.pinv(np.eye(3)), np.eye(3))

    def test_rank_one(self):
        m = np.array([[25.0, -25.0], [-25.0, 25.0]])
        expected = np.array([[0.01, -0.01], [-0.01, 0.01]])
        assert np.allclose(numerics.pinv(m), expected, atol=1e-12)

    def test_zero_matrix(self):
        assert np.allclose(numerics.pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_penrose_conditions(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(5, 3))
        p = numerics.pinv(m)
        assert np.allclose(m @ p @ m, m, atol=1e-10)
        assert np.allclose(p @ m @ p, p, atol=1e-10)
        assert np.allclose((m @ p).T, m @ p, atol=1e-10)
        assert np.allclose((p @ m).T, p @ m, atol=1e-10)

    def test_involution_on_full_rank(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            m = rng.normal(size=(4, 4))
            assert np.allclose(numerics.pinv(numerics.pinv(m)), m, atol=1e-8)

    def test_rejects_nonfinite(self):
        with pytest.raises(CnmaError):
            numerics.pinv(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestChol:
    def test_hand_factor(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        L = numerics.chol(m)
        assert np.allclose(L, [[1.0, 0.0], [0.5, 0.8660254]], atol=1e-7)

    def test_identity(self):
        assert np.allclose(numerics.chol(np.eye(4)), np.eye(4))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            numerics.chol(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_roundtrip_random_spd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            m = a @ a.T + 1e-3 * np.eye(4)
            L = numerics.chol(m)
            assert np.max(np.abs(L @ L.T - m)) < 1e-12


class TestMvnLogpdf:
    def test_standard_normal_at_zero(self):
        assert mvn_logpdf([0.0], [0.0], [[1.0]]) == pytest.approx(
            -0.9189385, abs=1e-6
        )

    def test_scaling(self):
        expected = -0.9189385 - 0.5 * np.log(4.0)
        assert mvn_logpdf([1.0], [1.0], [[4.0]]) == pytest.approx(
            expected, abs=1e-6
        )

    def test_shift_invariance(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        x = np.array([0.4, -0.2])
        mean = np.array([0.1, 0.1])
        shift = np.array([5.0, -3.0])
        assert mvn_logpdf(x, mean, cov) == pytest.approx(
            mvn_logpdf(x + shift, mean + shift, cov), abs=1e-12
        )

    def test_integrates_to_one_1d(self):
        grid = np.linspace(-10, 10, 4001)
        dens = np.exp([mvn_logpdf([g], [0.3], [[1.7]]) for g in grid])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(CnmaError):
            mvn_logpdf([0.0, 1.0], [0.0], [[1.0]])


class TestQuantile:
    def test_median_interpolated(self):
        assert numerics.quantile(np.arange(1, 101), 0.5) == pytest.approx(50.5)

    def test_single_draw(self):
        assert numerics.quantile(np.array([7.3]), 0.123) == pytest.approx(7.3)

    def test_upper_tail_type7(self):
        # type-7 position on {1..1000} at p=.975 is 1 + 999*0.975 = 975.025
        assert numerics.quantile(np.arange(1, 1001), 0.975) == pytest.approx(975.025)

    def test_empty_raises(self):
        with pytest.raises(CnmaError):
            numerics.quantile(np.array([]), 0.5)

    def test_bad_p(self):
        with pytest.raises(CnmaError):
            numerics.quantile(np.array([1.0]), 1.0)


class TestRngStream:
    def test_same_seed_stream_reproduces(self):
        a = numerics.rng_stream(42, 3).normal(size=10)
        b = numerics.rng_stream(42, 3).normal(size=10)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = numerics.rng_stream(42, 0).normal(size=10)
        b = numerics.rng_stream(42, 1).normal(size=10)
        assert not np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    st.floats(0.01, 0.99),
)
def test_quantile_within_range(values, p):
    arr = np.array(values)
    q = numerics.quantile(arr, p)
    assert arr.min() <= q <= arr.max()
