"""Additivity and consistency algebra over fitted component effects, and SUCRA.

Component-effect vectors are indexed by an explicit component order (the
network's frozen order). Treatment-level effects are sums of component
entries; relative effects between arbitrary treatments follow from
consistency: d(comparator -> target) = level(target) - level(comparator).

SUCRA and ``freq.p_scores`` share one score: the mean over the other treatments
of the probability of beating each (Rücker & Schwarzer 2015).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .design import incidence_matrix
from .errors import CnmaError
from .network import Treatment

DIRECTIONS = ("higher-better", "lower-better")


def contrast_vector(
    comparator: Treatment, target: Treatment, components
) -> np.ndarray:
    """Weights w such that w @ d = effect of target minus effect of comparator."""
    target_row, comparator_row = incidence_matrix([target, comparator], components)
    return target_row - comparator_row


def _ranked_treatments(treatments, direction: str) -> list[Treatment]:
    """``treatments`` as a list, checked for a ranking in ``direction``: one
    score each for >= 2 treatments, so none may be listed twice."""
    if direction not in DIRECTIONS:
        raise CnmaError(f"unknown direction {direction!r}")
    treatments = list(treatments)
    if len(treatments) < 2:
        raise CnmaError("a ranking needs >= 2 treatments")
    for i, t in enumerate(treatments):
        if t in treatments[:i]:
            raise CnmaError(f"treatment {t.label!r} is listed more than once")
    return treatments


def additive_effect(d: np.ndarray, treatment: Treatment, components) -> float:
    """Treatment-level effect: the sum of its components' entries in d."""
    return float(incidence_matrix([treatment], components)[0] @ np.asarray(d, dtype=float))


@dataclass(frozen=True)
class EffectEstimate:
    """The effect of ``target`` versus ``comparator``, with interval and SE."""

    comparator: Treatment
    target: Treatment
    point: float
    lower: float
    upper: float
    se: float
    source: str  # "freq" | "posterior"


def derive_relative_effect(
    d: np.ndarray,
    cov_or_draws: np.ndarray,
    comparator: Treatment,
    target: Treatment,
    components,
    level: float = 0.95,
) -> EffectEstimate:
    """Relative effect of ``target`` versus ``comparator``.

    ``cov_or_draws`` is either a c x c covariance matrix (frequentist fit,
    normal interval) or an N x c matrix of finite posterior draws (per-draw
    evaluation, equal-tailed interval interpolated linearly, type 7).
    """
    if not 0.0 < level < 1.0:
        raise CnmaError(f"level must be in (0, 1), got {level!r}")
    d = np.asarray(d, dtype=float)
    w = contrast_vector(comparator, target, components)
    if d.shape != w.shape:
        raise CnmaError(f"d must have one entry per component ({w.size}), got shape {d.shape}")
    point = float(w @ d)

    arr = np.asarray(cov_or_draws, dtype=float)
    tail = (1.0 - level) / 2.0
    is_cov = arr.ndim == 2 and arr.shape == (d.size, d.size) and np.allclose(arr, arr.T)
    if is_cov:
        var = float(w @ arr @ w)
        se = float(np.sqrt(max(var, 0.0)))
        z = float(ndtri(1.0 - tail))
        return EffectEstimate(
            comparator, target, point, point - z * se, point + z * se, se, "freq"
        )
    if arr.ndim == 2 and arr.shape[1] == d.size:
        if arr.shape[0] == 0:
            raise CnmaError("no posterior draws")
        if not np.all(np.isfinite(arr)):
            raise CnmaError("posterior draws must be finite")
        vals = arr @ w
        lower, upper = np.quantile(vals, [tail, 1.0 - tail], method="linear")
        return EffectEstimate(
            comparator,
            target,
            point,
            float(lower),
            float(upper),
            float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0,
            "posterior",
        )
    raise CnmaError("cov_or_draws must be c x c covariance or N x c draws")


def sucra(
    draws: np.ndarray, treatments, direction: str = "higher-better"
) -> dict[Treatment, float]:
    """Surface under the cumulative ranking curve, from posterior draws.

    ``draws`` holds treatment-level effects, one column per treatment. With T
    treatments, SUCRA_k = (T - E[rank_k]) / (T - 1) where rank 1 is best;
    ties within a draw take average ranks. This is the mean over l != k of
    P(k beats l), which ``freq.p_scores`` takes from a normal law instead.
    """
    treatments = _ranked_treatments(treatments, direction)
    draws = np.asarray(draws, dtype=float)
    n_t = len(treatments)
    if draws.ndim != 2 or draws.shape[1] != n_t:
        raise CnmaError("draws must be N x n_treatments")
    if draws.shape[0] < 100:
        raise CnmaError("sucra needs >= 100 draws")
    if not np.all(np.isfinite(draws)):
        raise CnmaError("sucra needs finite draws")
    signed = -draws if direction == "higher-better" else draws
    # average rank within each draw: the number of values below, plus the
    # mean position among the ties (the value itself included)
    below = (signed[:, None, :] < signed[:, :, None]).sum(axis=2)
    ties = (signed[:, None, :] == signed[:, :, None]).sum(axis=2)
    ranks = below + (ties + 1) / 2
    mean_rank = ranks.mean(axis=0)
    scores = (n_t - mean_rank) / (n_t - 1)
    return dict(zip(treatments, scores.tolist()))


@dataclass(frozen=True)
class AnchorCheck:
    """Per multi, the additivity residual at a second anchor and its predicted value."""

    residuals: dict[Treatment, float]
    expected: dict[Treatment, float]
    max_residual: float
    matches_identity: bool


def verify_unique_anchor(
    d_relative_to_y: dict[Treatment, float],
    y: Treatment,
    z: Treatment,
    multis,
    tol: float = 1e-12,
) -> AnchorCheck:
    """Check the algebraic obstruction to a second anchor.

    Given effects relative to Y under additivity anchored at Y, the additivity
    residual anchored at Z for a multicomponent treatment X is
    |d_{Z,X} - sum_{c in X} d_{Z,c}| and must equal (|X| - 1) * |d_{Y,Z}|,
    so it vanishes only when Z coincides with Y.
    """

    def effect_vs_y(t: Treatment) -> float:
        if t == y:
            return 0.0
        if t not in d_relative_to_y:
            raise CnmaError(f"missing effect for {t.label!r} relative to {y.label!r}")
        return d_relative_to_y[t]

    d_yz = effect_vs_y(z)
    residuals, expected = {}, {}
    for x in multis:
        if x.size < 2:
            raise CnmaError(f"{x.label!r} is not multicomponent")
        d_zx = effect_vs_y(x) - d_yz
        parts = 0.0
        for comp in x.components:
            single = Treatment(components=(comp,))
            parts += effect_vs_y(single) - d_yz
        residuals[x] = abs(d_zx - parts)
        expected[x] = (x.size - 1) * abs(d_yz)

    max_residual = max(residuals.values()) if residuals else 0.0
    matches = all(
        abs(residuals[x] - expected[x]) <= tol for x in residuals
    )
    return AnchorCheck(
        residuals=residuals,
        expected=expected,
        max_residual=max_residual,
        matches_identity=matches,
    )
