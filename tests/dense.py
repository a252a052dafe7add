"""Dense references for the tests: the paper's contrast matrices U, the
compound-symmetry structures Sigma and Sigma*, a contrast block's sampling
covariance and the multivariate normal log-density, each as an explicit
matrix. The package computes the same quantities in closed form (see
``cnma.design.ContrastDesign`` and the arm models' eps prior); the tests check
it against these.
"""

import numpy as np

from cnma.errors import CnmaError
from cnma.numerics import chol


def build_U(a: int, mode: str = "baseline", baseline_arm: int = 0) -> np.ndarray:
    """Contrast matrix over a study's arms.

    ``allpairs``: a(a-1)/2 rows in lexicographic pair order, arm k minus arm j
    for j < k. ``baseline``: a-1 rows, each non-baseline arm (in arm order)
    minus the baseline arm, whose column is all -1.
    """
    if a < 2:
        raise CnmaError("contrasts need >= 2 arms")
    if mode == "allpairs":
        rows = []
        for j in range(a):
            for k in range(j + 1, a):
                row = np.zeros(a)
                row[j], row[k] = -1.0, 1.0
                rows.append(row)
        return np.array(rows)
    if mode == "baseline":
        if not 0 <= baseline_arm < a:
            raise CnmaError("baseline arm out of range")
        rows = []
        for j in range(a):
            if j == baseline_arm:
                continue
            row = np.zeros(a)
            row[baseline_arm], row[j] = -1.0, 1.0
            rows.append(row)
        return np.array(rows)
    raise CnmaError(f"unknown contrast mode {mode!r}")


def build_Sigma(a: int) -> np.ndarray:
    """Compound-symmetry heterogeneity structure: unit diagonal, 1/2 elsewhere."""
    if a < 2:
        raise CnmaError("Sigma needs >= 2 arms")
    sigma = np.full((a, a), 0.5)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def build_Sigma_star(a: int) -> np.ndarray:
    """Compound symmetry on the a-1 baseline contrasts of an a-arm study."""
    if a < 2:
        raise CnmaError("Sigma* needs >= 2 arms")
    m = a - 1
    sigma = np.full((m, m), 0.5)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def block_covariance(block) -> np.ndarray:
    """A contrast block's (a-1)x(a-1) sampling covariance: se^2 on the
    diagonal, se_baseline^2 off it."""
    m = block.y_star.size
    cov = np.full((m, m), block.se_baseline**2)
    np.fill_diagonal(cov, block.se**2)
    return cov


def mvn_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Exact multivariate normal log-density, computed through a Cholesky factor."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    k = x.size
    if mean.size != k or cov.shape != (k, k):
        raise CnmaError("mvn_logpdf dimension mismatch")
    lower = chol(cov)
    z = np.linalg.solve(lower, x - mean)
    logdet = 2.0 * np.sum(np.log(np.diag(lower)))
    return float(-0.5 * (k * np.log(2.0 * np.pi) + logdet + z @ z))
