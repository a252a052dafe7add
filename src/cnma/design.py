"""Design and covariance-structure matrices.

Every design matrix in the package is rows of one treatment x component
incidence matrix, built by ``incidence_matrix``: an arm-level model's V1 holds
its studies' first arms' rows, and the stacked regression matrix X, of the
contrast designs and the arm-level models alike, holds, per study, each
later arm's row minus the first arm's: a study's first treatment is its
baseline, and ``arm_to_contrast`` puts the chosen one there. A network has
many arms and few distinct treatments, so the incidence builds one row per
distinct component set and copies it to every arm with that set; one row
builder, ``_baseline_contrasts``, takes the arms' treatments in one flat
sequence with each study's number of arms.
``ContrastDesign`` holds the stacked contrasts of a set of contrast blocks,
read in one pass over the blocks. It builds every X a fit reads: GLS solves
on one, and each Bayesian model holds one, of its contrast blocks or of its
arm-level studies' cc05 contrasts against their first arm, and takes its X
from it, less an anchor's column. One helper, ``_compound_symmetry``, gives
the closed forms of a compound-symmetry covariance and one density,
``_compound_symmetry_logpdf``, reads them, for the contrast likelihood and the
arm kinds' eps prior alike, so no contrast matrix U or compound-symmetry
matrix Sigma* is ever formed.
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
    contains ``components[k]``. Each treatment must be a ``Treatment``; the
    first bad entry is the one refused. One row is built per distinct
    component set, keyed on ``Treatment.components``, and indexed per entry."""
    column = {c: k for k, c in enumerate(components)}
    treatments = tuple(treatments)
    rows: dict[tuple, int] = {}  # component set -> its row
    index = []
    try:
        for treatment in treatments:
            key = treatment.components
            row = rows.get(key)
            if row is None:
                for comp in key:
                    if comp not in column:
                        raise UnknownComponent(f"component {comp!r} not in the component order")
                row = rows[key] = len(rows)
            index.append(row)
    except (AttributeError, TypeError):  # not a Treatment
        raise CnmaError(f"{treatment!r} is not a Treatment") from None
    distinct = np.zeros((len(rows), len(column)))
    for key, row in rows.items():
        distinct[row, [column[comp] for comp in key]] = 1.0
    return distinct[np.array(index, dtype=np.intp)]


def _baseline_contrasts(treatments, n_arms, components) -> np.ndarray:
    """Rows of X for consecutive studies or contrast blocks, given their
    treatments in one flat sequence and their numbers of arms: per record,
    each later treatment's incidence row minus the first's; columns follow
    ``components``."""
    V = incidence_matrix(treatments, components)
    n_arms = np.asarray(n_arms)
    first = np.cumsum(n_arms) - n_arms
    contrast = np.ones(len(V), dtype=bool)
    contrast[first] = False
    return V[contrast] - np.repeat(V[first], n_arms - 1, axis=0)


def stack_X(network: Network) -> np.ndarray:
    """Contrasts against each study's first arm, stacked over studies;
    columns follow the network's component order. It is defined for any
    network; whether it identifies the effects is a question of its rank."""
    studies = network.studies
    treatments = [arm.treatment for study in studies for arm in study.arms]
    return _baseline_contrasts(treatments, [study.n_arms for study in studies], network.components)


def _compound_symmetry(within, shared, starts, tau2: float):
    """(w, g, logdet) for studies whose covariance blocks, from row
    ``starts[i]``, are diag(within + tau2/2) + s 11' with s = shared + tau2/2:
    read-only w = 1 / diagonal and g = s / (1 + s sum(w)), so that the block
    of W is diag(w) - g w w', and the log determinant of the covariance, one
    float. The arm kinds' eps prior, sigma^2 Sigma*_i, is the case
    within = shared = 0, tau2 = sigma^2, with Sigma*_i = (I + 11')/2."""
    w = 1.0 / (within + 0.5 * tau2)
    s = shared + 0.5 * tau2
    denom = 1.0 + s * np.add.reduceat(w, starts)
    g = s / denom
    w.setflags(write=False)
    g.setflags(write=False)
    # np.add.reduce is the pairwise sum that ndarray.sum wraps
    return w, g, float(np.add.reduce(np.log(denom)) - np.add.reduce(np.log(w)))


def _compound_symmetry_logpdf(r, weights, starts) -> float:
    """Log density of ``r`` under N(0, the blocks from ``starts`` whose
    (w, g, logdet) ``_compound_symmetry`` gave as ``weights``). Its vector
    work is three products and one per-study sum; the rest is float math."""
    w, g, logdet = weights
    wr = w * r
    sums = np.add.reduceat(wr, starts)
    quad = float(wr @ r) - float(g @ (sums * sums))
    return -0.5 * (r.size * LOG_2PI + logdet + quad)


def _null_space(X) -> np.ndarray:
    """Orthonormal basis (c x (c - rank)) of the null space of X, from its
    SVD alone: the rank counts singular values above numpy's ``matrix_rank``
    tolerance, s_max * max(X.shape) * eps, so no weight enters it; the one rank rule."""
    n, c = X.shape
    # zero rows complete vt to c x c and leave the singular values as they are
    X = np.vstack([X, np.zeros((max(c - n, 0), c))])
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * max(n, c) * np.finfo(float).eps))
    return vt[rank:].T


class GlsSolution(NamedTuple):
    """The GLS answer at one heterogeneity variance (``ContrastDesign.gls``)."""

    d_hat: np.ndarray
    cov: np.ndarray  # (X'WX)^+
    Q: float  # generalized Q: weighted residual sum of squares at d_hat
    trace_P_Sigma: float  # trace of P Sigma*, with P = W - W X (X'WX)^+ X'W


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

    The constructor reads each block once, taking its treatments, y*, se,
    se_baseline and number of arms, and builds X with ``_baseline_contrasts``.
    ``_weights`` is ``_compound_symmetry`` behind an LRU cache of the two most
    recent tau2: a sweep asks for the current sigma and a proposal, and
    returns to the current one after a rejection. ``_solve`` is the one GLS
    solve, giving d_hat and (X'WX)^+; ``gls`` adds the generalized Q and
    trace(P Sigma*), which only the moment estimator reads.
    """

    def __init__(self, blocks, components):
        treatments, n_arms, y, se, shared = [], [], [], [], []
        for b in blocks:
            treatments += b.treatments
            n_arms.append(len(b.treatments))
            y.append(b.y_star)
            se.append(b.se)
            shared.append(b.se_baseline**2)
        if not n_arms:
            raise CnmaError("no contrast blocks")
        self.X = _baseline_contrasts(treatments, n_arms, components)
        self.y = np.concatenate(y)
        sizes = np.array(n_arms) - 1
        self.starts = np.cumsum(sizes) - sizes
        self.study = np.repeat(np.arange(sizes.size), sizes)
        self.shared = np.array(shared)
        self.within = np.concatenate(se) ** 2 - self.shared[self.study]
        # a cached bound method would make a reference cycle through self
        self._weights = functools.lru_cache(maxsize=2)(
            functools.partial(_compound_symmetry, self.within, self.shared, self.starts)
        )

    @functools.cached_property
    def null_space(self) -> np.ndarray:
        """The null space of X (see ``_null_space``)."""
        return _null_space(self.X)

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

    def logpdf(self, d: np.ndarray, tau2: float) -> float:
        """Log density of y* under N(X d, S* + tau2 Sigma*)."""
        return _compound_symmetry_logpdf(self.y - self.X @ d, self._weights(tau2), self.starts)

    def _solve(self, tau2: float):
        """(d_hat, cov, WX) of generalized least squares with weights W at
        ``tau2``: cov is the pseudoinverse of X'WX cut at the rank of X,
        whatever the weights."""
        WX = self.weigh(tau2, self.X)
        information = self.X.T @ WX
        if not np.all(np.isfinite(information)):
            raise CnmaError("X'WX has non-finite entries: a weight overflowed")
        u, s, vt = np.linalg.svd(information, full_matrices=False)
        s_inv = np.zeros_like(s)
        s_inv[: self.rank] = 1.0 / s[: self.rank]
        cov = (vt.T * s_inv) @ u.T
        return cov @ (WX.T @ self.y), cov, WX

    def gls(self, tau2: float) -> GlsSolution:
        """Generalized least squares with weights W at ``tau2`` (see
        ``_solve``), with its generalized Q and trace(P Sigma*): Sigma*_i is
        (I + 11')/2, so it is (trace(P) + sum_i 1'P_ii 1) / 2, where
        1'P_ii 1 = sum(w) - g sum(w)^2 - s_i (X'WX)^+ s_i' and s_i sums study
        i's rows of WX."""
        d_hat, cov, WX = self._solve(tau2)
        resid = self.y - self.X @ d_hat
        w, g, _ = self._weights(tau2)
        sum_w, sum_WX = np.add.reduceat(w, self.starts), np.add.reduceat(WX, self.starts)
        trace_P = np.sum(w) - g @ np.add.reduceat(w * w, self.starts) - np.sum((WX @ cov) * WX)
        sum_P = np.sum(sum_w - g * sum_w * sum_w) - np.sum((sum_WX @ cov) * sum_WX)
        return GlsSolution(
            d_hat=d_hat,
            cov=cov,
            Q=float(resid @ self.weigh(tau2, resid)),
            trace_P_Sigma=float(0.5 * (trace_P + sum_P)),
        )
