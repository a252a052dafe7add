"""Shared numeric kernels: pseudoinverse, Cholesky, MVN log-density, quantiles, RNG streams.

All matrix arguments are plain numpy arrays (row-major, finite entries).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CnmaError, NotPositiveDefinite

DEFAULT_PINV_RTOL = 1e-12

LOG_2PI = math.log(2.0 * math.pi)


def pinv(m: np.ndarray, rel_tol: float = DEFAULT_PINV_RTOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rel_tol`` times the largest singular value are
    treated as exactly zero.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise CnmaError("pinv requires finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(m.T)
    keep = s > rel_tol * s[0]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vt.T * s_inv) @ u.T


def chol(m: np.ndarray, jitter_floor: float = 0.0) -> np.ndarray:
    """Lower-triangular Cholesky factor L with L @ L.T == m.

    Raises NotPositiveDefinite when a pivot falls at or below ``jitter_floor``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise CnmaError("chol requires a square matrix")
    if not np.allclose(m, m.T, atol=1e-10):
        raise CnmaError("chol requires a symmetric matrix")
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    if jitter_floor > 0.0 and np.any(np.diag(lower) <= np.sqrt(jitter_floor)):
        raise NotPositiveDefinite("pivot at or below jitter floor")
    return lower


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


def quantile(draws: np.ndarray, p: float) -> float:
    """Empirical quantile with linear interpolation (type-7 definition)."""
    draws = np.asarray(draws, dtype=float)
    if draws.size == 0:
        raise CnmaError("quantile of empty draws")
    if not 0.0 < p < 1.0:
        raise CnmaError("quantile requires 0 < p < 1")
    return float(np.quantile(draws, p, method="linear"))


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent counter-based RNG stream.

    Identical (seed, stream) pairs reproduce identical draws; distinct stream
    ids give statistically independent streams, so replicates and chains can
    own one each and run in parallel reproducibly.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))
