import numpy as np
import pytest

from cnma import numerics
from dense import mvn_logpdf
from cnma.errors import CnmaError


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


class TestRngStream:
    def test_same_seed_stream_reproduces(self):
        a = numerics.rng_stream(42, 3).normal(size=10)
        b = numerics.rng_stream(42, 3).normal(size=10)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = numerics.rng_stream(42, 0).normal(size=10)
        b = numerics.rng_stream(42, 1).normal(size=10)
        assert not np.array_equal(a, b)

