"""Design and covariance-structure matrices.

Every design matrix in the package is rows of one treatment x component
incidence matrix, built by ``incidence_matrix``: an arm-level model's V holds
its arms' rows, and the stacked regression matrix X holds, per study, each
later arm's row minus the first arm's: a study's first treatment is its
baseline, and ``arm_to_contrast`` puts the chosen one there.
``ContrastDesign`` holds the stacked contrasts of a set of contrast blocks; one
helper, ``_compound_symmetry``, gives their covariance's closed forms, so no
contrast matrix U or compound-symmetry matrix Sigma* is ever formed.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import CnmaError, UnknownComponent
from .network import Network

LOG_2PI = math.log(2.0 * math.pi)


def incidence_matrix(treatments, components) -> np.ndarray:
    """Treatment x component incidence: entry (t, k) is 1 iff treatment t
    contains ``components[k]``. Each treatment must be a ``Treatment``."""
    column = {c: k for k, c in enumerate(components)}
    treatments = tuple(treatments)
    V = np.zeros((len(treatments), len(column)))
    try:
        for i, treatment in enumerate(treatments):
            for comp in treatment.components:
                if comp not in column:
                    raise UnknownComponent(f"component {comp!r} not in the component order")
                V[i, column[comp]] = 1.0
    except AttributeError:  # not a Treatment
        raise CnmaError(f"{treatment!r} is not a Treatment") from None
    return V


def _baseline_contrasts(records, components) -> np.ndarray:
    """Rows of X for consecutive studies or contrast blocks, from their
    ``treatments`` and ``n_arms``: per record, each later treatment's
    incidence row minus the first's; columns follow ``components``."""
    V = incidence_matrix([t for r in records for t in r.treatments], components)
    n_arms = np.array([r.n_arms for r in records])
    first = np.cumsum(n_arms) - n_arms
    contrast = np.ones(len(V), dtype=bool)
    contrast[first] = False
    return V[contrast] - np.repeat(V[first], n_arms - 1, axis=0)


def stack_X(network: Network) -> np.ndarray:
    """Contrasts against each study's first arm, stacked over studies;
    columns follow the network's component order. It is defined for any
    network; whether it identifies the effects is a question of its rank."""
    return _baseline_contrasts(network.studies, network.components)


def _compound_symmetry(within, shared, starts, tau2: float):
    """(w, g, logdet) for studies whose covariance blocks, from row
    ``starts[i]``, are diag(within + tau2/2) + s 11' with s = shared + tau2/2:
    read-only w = 1 / diagonal and g = s / (1 + s sum(w)), so that the block
    of W is diag(w) - g w w', and the log determinant of the covariance."""
    w = 1.0 / (within + 0.5 * tau2)
    s = shared + 0.5 * tau2
    denom = 1.0 + s * np.add.reduceat(w, starts)
    g = s / denom
    w.flags.writeable = g.flags.writeable = False
    return w, g, np.sum(np.log(denom)) - np.sum(np.log(w))


class GlsSolution(NamedTuple):
    """The GLS answer at one heterogeneity variance (``ContrastDesign.gls``)."""

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

    ``_weights`` is ``_compound_symmetry`` behind an LRU cache of the two most
    recent tau2: a sweep asks for the current sigma and a proposal, and
    returns to the current one after a rejection.
    """

    def __init__(self, blocks, components):
        blocks = tuple(blocks)
        if not blocks:
            raise CnmaError("no contrast blocks")
        self.X = _baseline_contrasts(blocks, components)
        self.y = np.concatenate([b.y_star for b in blocks])
        sizes = [b.y_star.size for b in blocks]
        self.starts = np.cumsum([0] + sizes[:-1])
        self.study = np.repeat(np.arange(len(blocks)), sizes)
        self.shared = np.array([b.se_baseline**2 for b in blocks])
        self.within = np.concatenate([b.se for b in blocks]) ** 2 - self.shared[self.study]
        # a cached bound method would make a reference cycle through self
        self._weights = functools.lru_cache(maxsize=2)(
            functools.partial(_compound_symmetry, self.within, self.shared, self.starts)
        )

    @functools.cached_property
    def null_space(self) -> np.ndarray:
        """Orthonormal basis (c x (c - rank)) of the null space of X, from its
        SVD alone: the rank counts singular values above numpy's ``matrix_rank``
        tolerance, s_max * max(X.shape) * eps, so no weight enters it."""
        n, c = self.X.shape
        # zero rows complete vt to c x c and leave the singular values as they are
        X = np.vstack([self.X, np.zeros((max(c - n, 0), c))])
        _, s, vt = np.linalg.svd(X, full_matrices=False)
        rank = int(np.count_nonzero(s > s[0] * max(n, c) * np.finfo(float).eps))
        return vt[rank:].T

    @property
    def rank(self) -> int:
        return self.X.shape[1] - self.null_space.shape[1]

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
        w, g, logdet = self._weights(tau2)
        r = self.y - self.X @ d
        wr = w * r
        sums = np.add.reduceat(wr, self.starts)
        quad = wr @ r - g @ (sums * sums)
        return float(-0.5 * (r.size * LOG_2PI + logdet + quad))

    def gls(self, tau2: float) -> GlsSolution:
        """Generalized least squares with weights W at ``tau2``, through the
        pseudoinverse of X'WX cut at the rank of X, whatever the weights."""
        WX = self.weigh(tau2, self.X)
        information = self.X.T @ WX
        if not np.all(np.isfinite(information)):
            raise CnmaError("X'WX has non-finite entries: a weight overflowed")
        u, s, vt = np.linalg.svd(information, full_matrices=False)
        s_inv = np.zeros_like(s)
        s_inv[: self.rank] = 1.0 / s[: self.rank]
        cov = (vt.T * s_inv) @ u.T
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
