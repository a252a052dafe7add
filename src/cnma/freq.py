"""Frequentist anchor-free model on contrasts: GLS with a Moore-Penrose
pseudoinverse, method-of-moments heterogeneity, and P-score rankings.

Multi-arm studies enter as their a_i - 1 baseline contrasts with the full
block covariance (sampling covariance plus, under random effects, the
compound-symmetry heterogeneity block), which is equivalent to re-weighting
all pairwise contrasts.

GLS answers the contrasts that the design estimates and refuses the rest.
The design need not have full rank, nor the treatments form one connected
group: a contrast w is estimable when it lies in the row space of the
stacked design X, that is has no part along its null space; the weights
never enter. ``gls_fit`` refuses blocks that compare treatments with a
contrast outside it, and ``p_scores`` a list of treatments with one.

Like the rest of the package, this module needs numpy and the standard
library only: ``p_scores`` takes the normal CDF from ``effects``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import ContrastDesign, incidence_matrix
from .effects import _normal_cdf, _ranked_treatments
from .errors import CnmaError, NotIdentifiable
from .network import Network, Treatment

# a contrast is estimable when its coordinates along the orthonormal null
# space of the design are all below this: far above their rounding error, and
# far below those of a treatment contrast (entries 0 and +-1) outside the row
# space
ESTIMABLE_TOL = 1e-8


@dataclass(frozen=True)
class FreqFit:
    """GLS estimates of component effects relative to the data-selected level."""

    d_hat: np.ndarray
    cov_d: np.ndarray
    tau2: float
    Q: float
    df: int
    null_space: np.ndarray  # orthonormal basis of the null space of X, c x (c - rank_X)
    components: tuple[str, ...]
    effects_model: str  # "fixed" | "random"
    tau2_truncated: bool

    @property
    def rank_X(self) -> int:
        return len(self.components) - self.null_space.shape[1]


def gls_fit(blocks, network: Network, effects_model: str = "random") -> FreqFit:
    """Weighted least squares on the stacked contrasts.

    The fixed-effects pass (tau2 = 0) gives Q and trace(P Sigma*), and so the
    method-of-moments heterogeneity variance. Under random effects the
    weights then hold that variance fixed, and the second pass computes only
    the d_hat and covariance it returns (``ContrastDesign._solve``), equal bit
    for bit to ``ContrastDesign.gls`` at that variance.
    """
    if effects_model not in ("fixed", "random"):
        raise CnmaError(f"unknown effects model {effects_model!r}")

    blocks = tuple(blocks)
    design = ContrastDesign(blocks, network.components)
    fixed = design.gls(0.0)
    # with full rank every contrast is estimable
    if design.rank < network.n_components:
        treatments = tuple(dict.fromkeys(t for b in blocks for t in b.treatments))
        _check_estimable(
            treatments, incidence_matrix(treatments, network.components), design.null_space
        )
    # generalized method of moments: tau2 = (Q - df) / trace(P Sigma*) with
    # P = W - W X (X'WX)^+ X'W, since E[Q] = df + tau2 trace(P Sigma*)
    # (Jackson, White & Riley 2013), truncated at zero and flagged when
    # negative or undefined (df <= 0); the classic two-stage estimator when
    # pairwise, where Sigma* = I; trace(P) would also depend on the baselines
    df = design.y.size - design.rank
    defined = df > 0 and fixed.trace_P_Sigma > 0
    tau2 = (fixed.Q - df) / fixed.trace_P_Sigma if defined else 0.0
    truncated = not defined or tau2 < 0.0
    tau2 = max(tau2, 0.0)
    if effects_model == "fixed":
        tau2, d_hat, cov = 0.0, fixed.d_hat, fixed.cov
    else:
        # Q and trace(P Sigma*) are read at tau2 = 0 only
        d_hat, cov, _ = design._solve(tau2)
    return FreqFit(
        d_hat=d_hat,
        cov_d=cov,
        tau2=tau2,
        Q=fixed.Q,
        df=df,
        null_space=design.null_space,
        components=network.components,
        effects_model=effects_model,
        tau2_truncated=truncated,
    )


def _check_estimable(treatments, M: np.ndarray, null_space: np.ndarray) -> None:
    """Raise NotIdentifiable, naming the treatment, when the contrast of a
    treatment against the first has a part along ``null_space``, the null
    space of X. ``M`` holds the treatments' incidence rows."""
    contrasts = M[1:] - M[0]
    outside_part = np.abs(contrasts @ null_space).max(axis=1, initial=0.0)
    outside = np.flatnonzero(outside_part > ESTIMABLE_TOL)
    if outside.size:
        t = treatments[outside[0] + 1]
        raise NotIdentifiable(
            f"the contrast of {t.label!r} versus {treatments[0].label!r} is not "
            "estimable: it lies outside the row space of the design"
        )


def p_scores(
    fit: FreqFit, treatments, direction: str = "higher-better"
) -> dict[Treatment, float]:
    """Frequentist ranking scores: the ``effects.sucra`` of N(d_hat, cov_d).

    For each ordered pair (k, l), the normal probability that k beats l,
    averaged over l != k. A fit whose design has rank below its number of
    components ranks only treatments whose contrasts it estimates; a list
    with any other raises NotIdentifiable.
    """
    treatments = _ranked_treatments(treatments, direction)
    n = len(treatments)
    M = incidence_matrix(treatments, fit.components)
    _check_estimable(treatments, M, fit.null_space)
    # W[k, l] weighs the effect of k minus that of l
    W = M[:, None, :] - M[None, :, :]
    diff = W @ fit.d_hat
    var = np.sum((W @ fit.cov_d) * W, axis=-1)
    pairs = ~np.eye(n, dtype=bool)
    zero = np.argwhere(pairs & (var <= 0.0))
    if zero.size:
        k, l = zero[0]
        raise CnmaError(
            f"zero standard error between {treatments[k].label!r} and "
            f"{treatments[l].label!r}"
        )
    z = diff[pairs] / np.sqrt(var[pairs])
    probs = _normal_cdf(z if direction == "higher-better" else -z).reshape(n, n - 1)
    return dict(zip(treatments, probs.mean(axis=1).tolist()))
