"""Relative effects and rankings from fitted component effects.

``contrast_vector`` gives w with w @ d = one treatment's effect minus another's,
where a treatment's effect is the sum of its components' entries of d (in the
network's frozen component order). ``derive_relative_effect`` makes that an
``EffectEstimate`` from a covariance or posterior draws; ``sucra`` ranks from
posterior draws by the score it shares with ``freq.p_scores``: the mean over
the other treatments of the probability of beating each (Rücker & Schwarzer 2015).

The normal law's CDF and quantile come from the standard library (``math.erfc``
and ``statistics.NormalDist``): the package imports numpy and the standard
library only, and its tests check both against a reference implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .design import incidence_matrix
from .errors import CnmaError
from .network import Treatment

DIRECTIONS = ("higher-better", "lower-better")

# a covariance whose contrast variance w'Sw falls below -NEGATIVE_VAR_RTOL *
# |w|'|S||w| is refused: rounding leaves w'Sw far closer to zero than that
NEGATIVE_VAR_RTOL = 1e-12


def contrast_vector(
    comparator: Treatment, target: Treatment, components
) -> np.ndarray:
    """Weights w such that w @ d = effect of target minus effect of comparator."""
    target_row, comparator_row = incidence_matrix([target, comparator], components)
    return target_row - comparator_row


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """The standard normal CDF of each entry of the vector ``z``, as
    erfc(-z / sqrt 2) / 2, which keeps its relative accuracy deep in the
    lower tail."""
    root2 = math.sqrt(2.0)
    return np.array([0.5 * math.erfc(-x / root2) for x in np.asarray(z, dtype=float).tolist()])


def _ranked_treatments(treatments, direction: str) -> list[Treatment]:
    """``treatments`` as a list, checked for a ranking in ``direction``: one
    score each for >= 2 treatments, so none may be listed twice."""
    if direction not in DIRECTIONS:
        raise CnmaError(f"unknown direction {direction!r}")
    treatments = list(treatments)
    if len(treatments) < 2:
        raise CnmaError("a ranking needs >= 2 treatments")
    for i, t in enumerate(treatments):
        if not isinstance(t, Treatment):
            raise CnmaError(f"{t!r} is not a Treatment")
        if t in treatments[:i]:
            raise CnmaError(f"treatment {t.label!r} is listed more than once")
    return treatments


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
    normal interval) or an N x c matrix of posterior draws (per-draw
    evaluation, equal-tailed interval interpolated linearly, type 7); either
    must be finite. A covariance that gives the contrast a variance below
    rounding level is refused.
    """
    if not 0.0 < level < 1.0:
        raise CnmaError(f"level must be in (0, 1), got {level!r}")
    d = np.asarray(d, dtype=float)
    w = contrast_vector(comparator, target, components)
    if d.shape != w.shape:
        raise CnmaError(f"d must have one entry per component ({w.size}), got shape {d.shape}")
    point = float(w @ d)

    arr = np.asarray(cov_or_draws, dtype=float)
    # before the covariance test: a NaN fails np.allclose and would pass for draws
    if not np.all(np.isfinite(arr)):
        raise CnmaError("cov_or_draws must be finite")
    tail = (1.0 - level) / 2.0
    is_cov = arr.ndim == 2 and arr.shape == (d.size, d.size) and np.allclose(arr, arr.T)
    if is_cov:
        var = float(w @ arr @ w)
        if var < -NEGATIVE_VAR_RTOL * float(np.abs(w) @ np.abs(arr) @ np.abs(w)):
            raise CnmaError(
                f"cov_or_draws gives the contrast a negative variance ({var!r}): "
                "it is not a covariance"
            )
        se = float(np.sqrt(max(var, 0.0)))
        z = NormalDist().inv_cdf(1.0 - tail)
        return EffectEstimate(
            comparator, target, point, point - z * se, point + z * se, se, "freq"
        )
    if arr.ndim == 2 and arr.shape[1] == d.size:
        if arr.shape[0] == 0:
            raise CnmaError("no posterior draws")
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
