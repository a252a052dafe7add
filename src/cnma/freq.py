"""Frequentist anchor-free model on contrasts: GLS with a Moore-Penrose
pseudoinverse, method-of-moments heterogeneity, and P-score rankings.

Multi-arm studies enter as their a_i - 1 baseline contrasts with the full
block covariance (sampling covariance plus, under random effects, the
compound-symmetry heterogeneity block), which is equivalent to re-weighting
all pairwise contrasts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .design import ContrastDesign, GlsSolution
from .effects import contrast_vector
from .errors import CnmaError, DisconnectedNetwork
from .network import Network, Treatment


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


def _moment_tau2(design: ContrastDesign, fixed: GlsSolution) -> tuple[float, int, bool]:
    """(tau2, df, truncated) from the fixed-effects solution ``fixed``."""
    df = design.y.size - design.rank
    if df <= 0 or fixed.trace_P <= 0:
        return 0.0, df, True
    tau2 = (fixed.Q - df) / fixed.trace_P
    if tau2 < 0.0:
        return 0.0, df, True
    return tau2, df, False


def estimate_tau2(blocks, network: Network) -> tuple[float, float, int, bool]:
    """Generalized method-of-moments heterogeneity estimate.

    Fits fixed-effects GLS, forms the generalized Q statistic from the
    weighted residuals, and solves the moment equation
    tau2 = (Q - df) / trace(P) with P = W - W X (X'WX)^+ X'W, truncating at
    zero. Reduces to the classic two-stage moment estimator in pairwise
    meta-analysis. Returns (tau2, Q, df, truncated_or_undefined_flag).
    """
    design = ContrastDesign(blocks, network)
    fixed = design.gls(0.0)
    tau2, df, truncated = _moment_tau2(design, fixed)
    return tau2, fixed.Q, df, truncated


def gls_fit(blocks, network: Network, effects_model: str = "random") -> FreqFit:
    """Weighted least squares on the stacked contrasts.

    Under random effects the heterogeneity variance is estimated first by
    the method of moments and then held fixed in the weights.
    """
    blocks = list(blocks)
    if not blocks:
        raise CnmaError("no contrast blocks")
    if effects_model not in ("fixed", "random"):
        raise CnmaError(f"unknown effects model {effects_model!r}")
    if not network.connected:
        raise DisconnectedNetwork("gls_fit requires a connected network")

    design = ContrastDesign(blocks, network)
    fixed = design.gls(0.0)
    tau2, df, truncated = _moment_tau2(design, fixed)
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


def p_scores(
    fit: FreqFit, treatments, direction: str = "higher-better"
) -> dict[Treatment, float]:
    """Frequentist ranking scores.

    For each ordered pair (k, l), the normal probability that k beats l,
    averaged over l != k. Uses the fitted covariance to propagate uncertainty
    to treatment-level differences.
    """
    treatments = list(treatments)
    if len(treatments) < 2:
        raise CnmaError("p_scores needs >= 2 treatments")
    scores = {}
    for k in treatments:
        probs = []
        for l in treatments:
            if l == k:
                continue
            w = contrast_vector(l, k, fit.components)
            diff = float(w @ fit.d_hat)
            var = float(w @ fit.cov_d @ w)
            if var <= 0.0:
                raise CnmaError(
                    f"zero standard error between {k.label!r} and {l.label!r}"
                )
            z = diff / np.sqrt(var)
            probs.append(ndtr(z if direction == "higher-better" else -z))
        scores[k] = float(np.mean(probs))
    return scores
