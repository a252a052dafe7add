import numpy as np
import pytest

from cnma.errors import CnmaError
from dense import mvn_logpdf


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

