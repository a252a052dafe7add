"""Design and covariance-structure matrices.

Every design matrix in the package is rows of one treatment x component
incidence matrix, built by ``incidence_matrix``: an arm-level model's V holds
its arms' rows, and the stacked regression matrix X holds, per study, each
non-baseline arm's row minus the baseline arm's. ``ContrastDesign`` holds the
stacked contrasts of a set of contrast blocks with their compound-symmetry
covariance in closed form; no contrast matrix U or compound-symmetry matrix
Sigma* is ever formed.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CnmaError, UnknownComponent
from .network import Network
from .numerics import LOG_2PI, pinv


def incidence_matrix(treatments, components) -> np.ndarray:
    """Treatment x component incidence: entry (t, k) is 1 iff treatment t
    contains ``components[k]``."""
    column = {c: k for k, c in enumerate(components)}
    treatments = tuple(treatments)
    V = np.zeros((len(treatments), len(column)))
    for i, treatment in enumerate(treatments):
        for comp in treatment.components:
            if comp not in column:
                raise UnknownComponent(f"component {comp!r} not in the component order")
            V[i, column[comp]] = 1.0
    return V


def _baseline_contrasts(V: np.ndarray, n_arms, baseline_arms) -> np.ndarray:
    """Rows of X from the stacked arm rows V of consecutive studies: per study,
    each non-baseline arm's row (in arm order) minus the baseline arm's."""
    n_arms = np.asarray(n_arms)
    baseline = np.cumsum(n_arms) - n_arms + np.asarray(baseline_arms)
    study = np.repeat(np.arange(n_arms.size), n_arms)
    contrast = np.ones(len(V), dtype=bool)
    contrast[baseline] = False
    return V[contrast] - V[baseline[study[contrast]]]


def stack_X(network: Network) -> np.ndarray:
    """Baseline contrasts against each study's first arm, stacked over studies;
    columns follow the network's component order. It is defined for any
    network; whether it identifies the effects is a question of its rank."""
    studies = network.studies
    V = incidence_matrix([t for s in studies for t in s.treatments], network.components)
    return _baseline_contrasts(V, [s.n_arms for s in studies], [0] * len(studies))


class GlsSolution(NamedTuple):
    d_hat: np.ndarray
    cov: np.ndarray  # (X'WX)^+
    Q: float  # generalized Q: weighted residual sum of squares at d_hat
    trace_P: float  # trace of P = W - W X (X'WX)^+ X'W


class ContrastDesign:
    """The stacked baseline contrasts of a set of contrast blocks and the
    algebra of their covariance.

    Study i contributes rows X_i = U_i V_i, contrasts y*_i and, at
    heterogeneity tau2, the covariance S*_i + tau2 Sigma*_i, which equals
    diag(se_i^2 - se_b,i^2 + tau2/2) + (se_b,i^2 + tau2/2) 11'. A diagonal
    plus a rank-one term has a closed-form inverse (Sherman-Morrison) and log
    determinant (matrix determinant lemma), so every product with the
    block-diagonal weight W = (S* + tau2 Sigma*)^-1 costs per-contrast
    arithmetic plus one per-study sum (``np.add.reduceat``); no n x n matrix
    is formed.
    """

    def __init__(self, blocks, network: Network):
        blocks = tuple(blocks)
        if not blocks:
            raise CnmaError("no contrast blocks")
        V = incidence_matrix([t for b in blocks for t in b.treatments], network.components)
        self.X = _baseline_contrasts(
            V, [b.n_arms for b in blocks], [b.baseline_arm for b in blocks]
        )
        self.y = np.concatenate([b.y_star for b in blocks])
        sizes = [b.y_star.size for b in blocks]
        self.starts = np.cumsum([0] + sizes[:-1])
        self.study = np.repeat(np.arange(len(blocks)), sizes)
        self.shared = np.array([b.se_baseline**2 for b in blocks])
        self.within = np.concatenate([b.se**2 for b in blocks]) - self.shared[self.study]

    @cached_property
    def rank(self) -> int:
        return int(np.linalg.matrix_rank(self.X))

    def _weights(self, tau2: float):
        """Per contrast w = 1 / diagonal; per study the Sherman-Morrison
        denominator 1 + s sum(w) and factor g = s / denominator, s being the
        shared term, so that W_i = diag(w) - g w w'."""
        w = 1.0 / (self.within + 0.5 * tau2)
        s = self.shared + 0.5 * tau2
        denom = 1.0 + s * np.add.reduceat(w, self.starts)
        return w, s / denom, denom

    def weigh(self, tau2: float, m: np.ndarray) -> np.ndarray:
        """W @ m for a vector or matrix ``m`` with one row per contrast."""
        w, g, _ = self._weights(tau2)
        wm = w[:, None] * m.reshape(w.size, -1)
        sums = np.add.reduceat(wm, self.starts)
        out = wm - (w * g[self.study])[:, None] * sums[self.study]
        return out.reshape(m.shape)

    def information(self, tau2: float) -> np.ndarray:
        """X'WX."""
        return self.X.T @ self.weigh(tau2, self.X)

    def logpdf(self, d: np.ndarray, tau2: float) -> float:
        """Log density of y* under N(X d, S* + tau2 Sigma*)."""
        w, g, denom = self._weights(tau2)
        r = self.y - self.X @ d
        wr = w * r
        sums = np.add.reduceat(wr, self.starts)
        quad = wr @ r - g @ (sums * sums)
        logdet = np.sum(np.log(denom)) - np.sum(np.log(w))
        return float(-0.5 * (r.size * LOG_2PI + logdet + quad))

    def gls(self, tau2: float) -> GlsSolution:
        """Generalized least squares with weights W at ``tau2``, through the
        pseudoinverse of X'WX."""
        WX = self.weigh(tau2, self.X)
        cov = pinv(self.X.T @ WX)
        d_hat = cov @ (WX.T @ self.y)
        resid = self.y - self.X @ d_hat
        w, g, _ = self._weights(tau2)
        trace_W = np.sum(w) - g @ np.add.reduceat(w * w, self.starts)
        return GlsSolution(
            d_hat=d_hat,
            cov=cov,
            Q=float(resid @ self.weigh(tau2, resid)),
            trace_P=float(trace_W - np.sum((WX @ cov) * WX)),
        )
