"""Frequentist anchor-free model on contrasts: GLS with a Moore-Penrose
pseudoinverse, method-of-moments heterogeneity, and P-score rankings.

Multi-arm studies enter as their a_i - 1 baseline contrasts with the full
block covariance (sampling covariance plus, under random effects, the
compound-symmetry heterogeneity block), which is equivalent to re-weighting
all pairwise contrasts.

GLS answers the contrasts that the design estimates and refuses the rest.
The design need not have full rank, nor the treatments form one connected
group: a contrast w is estimable when it lies in the row space of the
stacked design X, which is the range of (X'WX)^+. ``gls_fit`` refuses a
network with a treatment contrast outside it, and ``p_scores`` a list of
treatments with one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .design import ContrastDesign, incidence_matrix
from .effects import DIRECTIONS, _distinct
from .errors import CnmaError, NotIdentifiable
from .network import Network, Treatment
from .numerics import pinv

# a contrast is estimable when its distance from the row space of the design
# is below this: far above the rounding error of the projector onto that
# space, and far below the distance of a treatment contrast (entries 0 and
# +-1) outside it
ESTIMABLE_TOL = 1e-8


@dataclass(frozen=True)
class FreqFit:
    """GLS estimates of component effects relative to the data-selected level."""

    d_hat: np.ndarray
    cov_d: np.ndarray
    tau2: float
    Q: float
    df: int
    rank_X: int
    components: tuple[str, ...]
    effects_model: str  # "fixed" | "random"
    tau2_truncated: bool


def gls_fit(blocks, network: Network, effects_model: str = "random") -> FreqFit:
    """Weighted least squares on the stacked contrasts.

    Under random effects the heterogeneity variance is estimated first by
    the method of moments and then held fixed in the weights.
    """
    if effects_model not in ("fixed", "random"):
        raise CnmaError(f"unknown effects model {effects_model!r}")

    design = ContrastDesign(blocks, network)
    fixed = design.gls(0.0)
    # with full rank every contrast is estimable
    if design.rank < network.n_components:
        treatments = network.treatments
        _check_estimable(
            treatments, incidence_matrix(treatments, network.components), fixed.cov
        )
    # generalized method of moments: tau2 = (Q - df) / trace(P) with
    # P = W - W X (X'WX)^+ X'W, truncated at zero and flagged when negative
    # or undefined (df <= 0); the classic two-stage estimator when pairwise
    df = design.y.size - design.rank
    defined = df > 0 and fixed.trace_P > 0
    tau2 = (fixed.Q - df) / fixed.trace_P if defined else 0.0
    truncated = not defined or tau2 < 0.0
    tau2 = max(tau2, 0.0)
    if effects_model == "fixed":
        tau2_used, solution = 0.0, fixed
    else:
        tau2_used, solution = tau2, design.gls(tau2)
    return FreqFit(
        d_hat=solution.d_hat,
        cov_d=solution.cov,
        tau2=tau2_used,
        Q=fixed.Q,
        df=df,
        rank_X=design.rank,
        components=network.components,
        effects_model=effects_model,
        tau2_truncated=truncated,
    )


def _check_estimable(treatments, M: np.ndarray, cov: np.ndarray) -> None:
    """Raise NotIdentifiable, naming the treatment, when the contrast of a
    treatment against the first lies outside the range of ``cov`` = (X'WX)^+,
    which is the row space of X. ``M`` holds the treatments' incidence rows."""
    contrasts = M[1:] - M[0]
    projector = cov @ pinv(cov)
    distance = np.abs(contrasts - contrasts @ projector.T).max(axis=1)
    outside = np.flatnonzero(distance > ESTIMABLE_TOL)
    if outside.size:
        t = treatments[outside[0] + 1]
        raise NotIdentifiable(
            f"the contrast of {t.label!r} versus {treatments[0].label!r} is not "
            "estimable: it lies outside the row space of the design"
        )


def p_scores(
    fit: FreqFit, treatments, direction: str = "higher-better"
) -> dict[Treatment, float]:
    """Frequentist ranking scores.

    For each ordered pair (k, l), the normal probability that k beats l,
    averaged over l != k. Uses the fitted covariance to propagate uncertainty
    to treatment-level differences. A fit whose design has rank below its
    number of components ranks only treatments whose contrasts it estimates;
    a list with any other raises NotIdentifiable.
    """
    if direction not in DIRECTIONS:
        raise CnmaError(f"unknown direction {direction!r}")
    treatments = _distinct(treatments)
    n = len(treatments)
    if n < 2:
        raise CnmaError("p_scores needs >= 2 treatments")
    M = incidence_matrix(treatments, fit.components)
    if fit.rank_X < len(fit.components):
        _check_estimable(treatments, M, fit.cov_d)
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
    probs = ndtr(z if direction == "higher-better" else -z).reshape(n, n - 1)
    return dict(zip(treatments, probs.mean(axis=1).tolist()))
