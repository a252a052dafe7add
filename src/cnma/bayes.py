"""Bayesian additive models.

Three model kinds share one fitting path:

- ``anchored-arm``: the ``unanchored-arm`` model with the column of a
  single-component anchor treatment dropped from the incidence matrix
  (d_A = 0), so component effects are relative to the anchor.
- ``unanchored-arm``: binomial arm-level likelihood with the full incidence
  matrix; the comparator level of the effect vector is implicit in the fit.
- ``unanchored-contrast``: normal likelihood on baseline contrasts with the
  heterogeneity integrated out analytically, y* ~ N(U* V d, S* + sigma^2 Sigma*).

Every kind reads its X from one ``ContrastDesign``, the model's ``design``:
the contrast kind's data, or an arm kind's studies as cc05 contrasts.

Arm-level random effects use the baseline-arm parameterization: the baseline
arm's latent is fixed at zero and the remaining a-1 latents get the
compound-symmetry contrast covariance sigma^2 Sigma*, with the contrast
likelihood's density (``design``). Differencing the full a-dimensional
compound-symmetry latent against a common arm yields exactly this law, and the
direction it removes is absorbed by the diffuse per-study baseline, so contrast
inference is unchanged while sampling loses a redundant dimension.

Each model kind has one log likelihood and one log posterior, its ``loglik``
and ``logpost``. Both take the sampling parameterization that the sampler
moves through: sigma is sampled as log sigma, and for the arm kinds the study
baselines are arm-1 logits (see ``_ArmModel``). ``logpost`` is the density of
those sampling coordinates, so sigma's uniform prior enters it with the log
sigma Jacobian. A model's ``to_internal`` maps reported vectors there, and its
``reported_draws`` maps the draws back, in place. A model's ``sample`` draws
in its sampling parameterization; ``fit`` validates, samples, maps the draws
to the reported parameterization and warns when they have not converged.

A fit's R-hat and ESS are those of its reported draws. ``fit`` logs one
warning on the ``cnma`` logger when they miss ``RHAT_LIMIT`` or ``ESS_LIMIT``.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import design
from .design import LOG_2PI, ContrastDesign, incidence_matrix
from .errors import CnmaError, EmptyNetwork, NotIdentifiable, UnknownAnchor
from .mcmc import Block, McmcConfig, PosteriorSample, rng_stream, run_chains, summarize
from .network import ContrastBlock, Network, Study, Treatment, _check_study_ids
from .network import _is_real, arm_to_contrast

logger = logging.getLogger("cnma")

MODEL_KINDS = ("anchored-arm", "unanchored-arm", "unanchored-contrast")

# a fit warns when some parameter's R-hat exceeds RHAT_LIMIT or its ESS is
# below ESS_LIMIT
RHAT_LIMIT = 1.01
ESS_LIMIT = 400.0


@dataclass(frozen=True)
class Priors:
    """Normal prior variances of the effects and study baselines; sigma's upper bound."""

    d_variance: float = 1000.0
    alpha_variance: float = 1000.0
    sigma_upper: float = 2.0

    def __post_init__(self):
        for name in ("d_variance", "alpha_variance", "sigma_upper"):
            value = getattr(self, name)
            if not _is_real(value) or not math.isfinite(value) or value <= 0:
                raise CnmaError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """What to fit: a kind of ``MODEL_KINDS``, its effects mode, anchor and priors."""

    kind: str
    effects: str = "random"
    anchor: Treatment | None = None
    priors: Priors = field(default_factory=Priors)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise CnmaError(f"unknown model kind {self.kind!r}")
        if self.effects not in ("fixed", "random"):
            raise CnmaError(f"unknown effects mode {self.effects!r}")
        if self.anchor is not None and not (
            isinstance(self.anchor, Treatment) and self.anchor.size == 1
        ):
            raise UnknownAnchor(f"anchor must be a single-component Treatment, got {self.anchor!r}")
        if (self.anchor is not None) != (self.kind == "anchored-arm"):
            raise CnmaError("anchor is required for anchored-arm and only there")
        if not isinstance(self.priors, Priors):
            raise CnmaError(f"priors must be a Priors, got {self.priors!r}")

    @property
    def random_effects(self) -> bool:
        return self.effects == "random"


def _log_binomial_coefficients(r: np.ndarray, n: np.ndarray) -> float:
    """Sum of log C(n, r) over arms: the binomial likelihood's constant."""
    return float(np.sum([
        math.lgamma(total + 1) - math.lgamma(events + 1) - math.lgamma(total - events + 1)
        for events, total in zip(r.tolist(), n.tolist())
    ]))


def _normal_logpdf(v: np.ndarray, variance: float) -> float:
    """Log density of v under N(0, variance I): the effects' and baselines' prior."""
    return float(-0.5 * (v @ v) / variance - 0.5 * v.size * (LOG_2PI + math.log(variance)))


class _Model:
    """Terms shared by the model kinds.

    X is the X of the kind's ``design`` without an anchor's column (d_A = 0).
    The vector holds the effect block at ``d_sl``, then the kind's per-study
    coordinates, then, under random effects, sigma at ``sigma_pos``. The
    effects get a normal prior and sigma a uniform one on (0, sigma_upper).
    sigma is sampled as u = log sigma: ``to_internal`` and ``reported_draws``
    map sigma to u and back, the arm kinds' overrides chain to them, and
    ``logpost`` is the density of the sampling coordinates, with u's prior
    density e^u / sigma_upper. ``sample`` runs the block Metropolis sampler
    over ``blocks_and_partials``.
    """

    def __init__(self, network: Network, spec: ModelSpec, contrasts: ContrastDesign,
                 study_names=()):
        self.network = network
        self.spec = spec
        self.design = contrasts
        anchor = spec.anchor.components if spec.anchor is not None else ()
        self.d_components = tuple(c for c in network.components if c not in anchor)
        # each effect coordinate's column among network.components
        self.d_columns = np.array([network.components.index(c) for c in self.d_components], int)
        # BLAS takes another path, and so other bits, on an F-ordered matrix
        self.X = np.ascontiguousarray(contrasts.X[:, self.d_columns])
        self.d_sl = slice(0, len(self.d_components))
        names = [f"d[{c}]" for c in self.d_components] + list(study_names)
        self.sigma_pos = len(names) if spec.random_effects else None
        if spec.random_effects:
            names.append("sigma")
        self.names = tuple(names)
        self.dim = len(names)
        # each coordinate's weight in the additive jitter of the chains' starts;
        # sigma's start is jittered multiplicatively instead
        self.jitter_scale = np.ones(self.dim)
        if spec.random_effects:
            self.jitter_scale[self.sigma_pos] = 0.0

    def to_internal(self, x: np.ndarray) -> np.ndarray:
        """Reported vectors, one or a stack, in the sampling parameterization."""
        y = np.array(x, dtype=float)
        if self.sigma_pos is not None:
            y[..., self.sigma_pos] = np.log(y[..., self.sigma_pos])
        return y

    def reported_draws(self, draws: np.ndarray) -> np.ndarray:
        """Map a (..., dim) array of internal draws to the reported
        parameterization, in place, and return it."""
        if self.sigma_pos is not None:
            draws[..., self.sigma_pos] = np.exp(draws[..., self.sigma_pos])
        return draws

    def _d_prior(self, x) -> float:
        return _normal_logpdf(x[self.d_sl], self.spec.priors.d_variance)

    def _log_sigma_prior(self, x) -> float:
        """Log density of u = log sigma for sigma ~ U(0, sigma_upper):
        u - log sigma_upper below log sigma_upper, the Jacobian included."""
        u, log_upper = x[self.sigma_pos], math.log(self.spec.priors.sigma_upper)
        return u - log_upper if u < log_upper else -math.inf

    def _study_prior(self, x) -> float:
        """Prior terms of the per-study coordinates."""
        return 0.0

    def logpost(self, x: np.ndarray) -> float:
        """Log posterior at one vector in the sampling parameterization."""
        bounds = self._log_sigma_prior(x) if self.spec.random_effects else 0.0
        if bounds == -math.inf:
            return -math.inf
        return float(self.loglik(x) + self._d_prior(x) + self._study_prior(x) + bounds)

    def blocks_and_partials(self, d_chol):
        """The effect block and, under random effects, the sigma block, each
        with the log posterior as its partial, memoised for the two latest
        states.

        The sampler evaluates a block's partial at the current state before
        each proposal, and that state is the one the previous block's
        proposal or rejection left, so half the evaluations are lookups. The
        memo lives here, one per call, rather than in the sampler or in
        ``logpost``: the sampler still makes two partial calls per block and
        sweep, the count the benchmark's tracer test pins, and ``logpost``
        still evaluates on every call, which the benchmark's ``logpost_us``
        times. It is keyed on the state's bytes and dropped with the partials.
        """
        k = len(self.d_components)
        scale = 2.38 / math.sqrt(max(k, 1))
        blocks = [Block("d", tuple(range(k)), scale=scale, factor=d_chol)]
        if self.spec.random_effects:
            blocks.append(Block("sigma", (self.sigma_pos,), scale=0.4))
        logpost = self.logpost
        at = functools.lru_cache(maxsize=2)(lambda key: logpost(np.frombuffer(key)))
        return blocks, [lambda x: at(x.tobytes())] * len(blocks)

    def sample(self, config: McmcConfig) -> PosteriorSample:
        """Draws in the sampling parameterization, one chain per jittered start."""
        blocks, partials = self.blocks_and_partials(_d_preconditioner(self))
        inits = self.to_internal(_initial_vectors(self, config))
        return run_chains(self.logpost, inits, blocks, config, partials=partials)

    def initial_vector(self) -> np.ndarray:
        """The neutral point, sampled coordinates: zeros, sigma at half its bound."""
        x = np.zeros(self.dim)
        if self.spec.random_effects:
            x[self.sigma_pos] = math.log(self.spec.priors.sigma_upper / 2.0)
        return x


class _ArmModel(_Model):
    """Precomputed arrays and log-posterior terms for the arm-level kinds.

    Reported parameterization: (d, alpha, eps, sigma) where alpha_i is the
    study baseline of the linear predictor, logit = alpha_i + V d + eps.

    Sampling parameterization: alpha is replaced by the arm-1 logit
    a_i = alpha_i + (V d)_{arm 1}, so the effect block changes only contrast
    predictions and the baseline block absorbs the level: the logit is a_i on
    a study's first arm and a_i + X d + eps on a later one, with the X of
    ``design``, the studies' cc05 contrasts against arm 1. The map is affine and
    volume-preserving, so draws are transformed back after sampling. The eps
    prior is ``design``'s compound-symmetry density, its weights cached for
    the two latest sigma as the contrast likelihood's are.

    The studies keep their arm order. A study's arm order enters only through
    the alpha prior, which sits on its first arm: sigma^2 Sigma* is the same
    whichever arm is the baseline, so the likelihood and the eps prior are too.
    """

    def __init__(self, studies, network: Network, spec: ModelSpec):
        self.studies = tuple(studies)
        contrasts = [arm_to_contrast(s, 0, "cc05") for s in self.studies]

        study_names = [f"alpha[{s.id}]" for s in self.studies]
        if spec.random_effects:
            for study in self.studies:
                study_names += [f"eps[{study.id}:{j + 1}]" for j in range(study.n_arms - 1)]
        super().__init__(network, spec, ContrastDesign(contrasts, network.components), study_names)

        arms = [(i, arm) for i, study in enumerate(self.studies) for arm in study.arms]
        self.arm_study = np.array([i for i, _ in arms], dtype=int)
        self.r = np.array([float(arm.events) for _, arm in arms])
        self.n = np.array([float(arm.total) for _, arm in arms])
        self.m = np.array([s.n_arms - 1 for s in self.studies], dtype=int)
        # offset of each study's first arm in the stacked arm arrays
        self.arm_starts = np.cumsum(self.m + 1) - (self.m + 1)
        # every arm but each study's first: the rows of X, and the arms with a latent
        self.later_arms = np.setdiff1d(np.arange(self.r.size), self.arm_starts)
        V1 = incidence_matrix([s.arms[0].treatment for s in self.studies], network.components)
        self.V1 = np.ascontiguousarray(V1[:, self.d_columns])
        self.logc_total = _log_binomial_coefficients(self.r, self.n)

        k, n_studies = self.d_sl.stop, len(self.studies)
        n_eps = int(self.m.sum()) if spec.random_effects else 0
        self.alpha_sl = slice(k, k + n_studies)
        self.eps_sl = slice(k + n_studies, k + n_studies + n_eps)
        self.jitter_scale[self.eps_sl] = 0.2

        if spec.random_effects:
            # blocks sigma^2 Sigma*_i at tau2 = sigma^2; a cached bound method would make a cycle
            zeros = np.zeros(n_eps), np.zeros(n_studies)
            weights = functools.partial(design._compound_symmetry, *zeros, self.design.starts)
            self._eps_weights = functools.lru_cache(maxsize=2)(weights)

    # --- parameterization maps -------------------------------------------

    def to_internal(self, x: np.ndarray) -> np.ndarray:
        """(d, alpha, ...) -> (d, arm-1 logit, ...), for one vector or a stack."""
        y = super().to_internal(x)
        # one matrix-vector product per row: a row of a stack gets the same
        # bits as the vector alone
        y[..., self.alpha_sl] += (self.V1 @ y[..., self.d_sl, None])[..., 0]
        return y

    def reported_draws(self, draws: np.ndarray) -> np.ndarray:
        draws[..., self.alpha_sl] -= np.einsum("...k,ik->...i", draws[..., self.d_sl], self.V1)
        return super().reported_draws(draws)

    # --- log likelihood and priors (sampling parameterization) ------------

    def loglik(self, x: np.ndarray):
        """Binomial log likelihood, logit = a_i on each study's first arm and
        a_i + X d + eps on the later ones: a float for one vector, an array
        for a matrix holding one per row."""
        # x.T puts the coordinates first for one vector and for rows alike
        xt = x.T
        logits = xt[self.alpha_sl][self.arm_study]
        logits[self.later_arms] += self.X @ xt[self.d_sl]
        if self.spec.random_effects:
            logits[self.later_arms] += xt[self.eps_sl]
        return self.r @ logits - self.n @ np.logaddexp(0.0, logits) + self.logc_total

    def _alpha_prior(self, x) -> float:
        # the normal prior is on the reported baseline alpha_i = a_i - (V d)_{arm 1}
        alpha = x[self.alpha_sl] - self.V1 @ x[self.d_sl]
        return _normal_logpdf(alpha, self.spec.priors.alpha_variance)

    def _eps_prior(self, x) -> float:
        weights = self._eps_weights(math.exp(2.0 * x[self.sigma_pos]))
        return design._compound_symmetry_logpdf(x[self.eps_sl], weights, self.design.starts)

    def _study_prior(self, x) -> float:
        if self.spec.random_effects:
            return self._alpha_prior(x) + self._eps_prior(x)
        return self._alpha_prior(x)

    # --- block partials ---------------------------------------------------

    def _study_partials(self, i: int):
        """The partials of study i's two blocks, built for one fit.

        Each is study i's log-likelihood in the sampling parameterization plus
        that block's prior: alpha_i's normal prior, or the compound-symmetry
        prior of eps_i, up to the terms the block does not move. They use
        scalar math with the study's constants worked out once, since each
        runs tens of thousands of times per chain; the eps partial is None
        under fixed effects. The eps partial keeps its scalar quadratic form
        rather than call ``design``'s density: it runs twice per study and
        sweep, and a cache lookup would cost time on each call.

        Each partial holds the study's log-likelihood inline, with no nested
        call, and reads its baseline and each of its latents once per call;
        an effect is read where a logit or the alpha prior uses it, since a
        per-call container of effects costs more than the repeat reads it
        would save. The arithmetic is the study log-likelihood's, in its
        order: arms in order, each logit the baseline plus X entry * effect in
        column order plus the latent, the total from 0.0, then the prior term.
        """
        start, m = int(self.arm_starts[i]), int(self.m[i])
        stop = start + m + 1
        # study i's rows of X start at its first latent's offset, arm_starts[i] - i
        rows = self.X[start - i : stop - i - 1]
        alpha_pos = self.alpha_sl.start + i
        random_effects = self.spec.random_effects
        eps_start = self.eps_sl.start + start - i if random_effects else -1
        # per arm: events, total, nonzero (column, X entry) pairs, latent position
        nonzero = [tuple((int(c), float(row[c])) for c in np.flatnonzero(row)) for row in rows]
        latent = [eps_start + j if random_effects else -1 for j in range(m)]
        arms = tuple(zip(self.r[start:stop].tolist(), self.n[start:stop].tolist(),
                         [()] + nonzero, [-1] + latent))
        exp, log1p = math.exp, math.log1p
        av = self.spec.priors.alpha_variance
        v1_cols = tuple(int(j) for j in np.flatnonzero(self.V1[i]))

        def alpha_partial(x) -> float:
            item = x.item
            alpha = item(alpha_pos)
            total = 0.0
            for r, n, nz, epos in arms:
                lo = alpha
                for j, sign in nz:
                    lo += sign * item(j)
                if epos >= 0:
                    lo += item(epos)
                softplus = lo + log1p(exp(-lo)) if lo >= 0.0 else log1p(exp(lo))
                total += r * lo - n * softplus
            # the reported baseline alpha_i = a_i - (V d)_{arm 1}
            a = alpha
            for j in v1_cols:
                a -= item(j)
            return total - 0.5 * a * a / av

        if not random_effects:
            return alpha_partial, None

        sigma_pos = self.sigma_pos

        def eps_partial(x) -> float:
            item = x.item
            alpha = item(alpha_pos)
            # the quadratic form's sums take the latents in order, as the logits do
            total = s = ss = 0.0
            for r, n, nz, epos in arms:
                lo = alpha
                for j, sign in nz:
                    lo += sign * item(j)
                if epos >= 0:
                    v = item(epos)
                    lo += v
                    s += v
                    ss += v * v
                softplus = lo + log1p(exp(-lo)) if lo >= 0.0 else log1p(exp(lo))
                total += r * lo - n * softplus
            return total - (ss - s * s / (m + 1.0)) / exp(2.0 * item(sigma_pos))

        return alpha_partial, eps_partial

    def blocks_and_partials(self, d_chol):
        blocks, _ = super().blocks_and_partials(d_chol)
        partials = [lambda x: self.loglik(x) + self._d_prior(x) + self._alpha_prior(x)]
        if self.spec.random_effects:
            partials.append(lambda x: self._eps_prior(x) + self._log_sigma_prior(x))

        per_study = [self._study_partials(i) for i in range(len(self.studies))]
        for i, study in enumerate(self.studies):
            blocks.append(Block(f"alpha[{study.id}]", (self.alpha_sl.start + i,), scale=0.3))
            partials.append(per_study[i][0])

        if self.spec.random_effects:
            for i, study in enumerate(self.studies):
                start = self.eps_sl.start + int(self.design.starts[i])
                dims = tuple(range(start, start + int(self.m[i])))
                blocks.append(Block(f"eps[{study.id}]", dims, scale=0.3))
                partials.append(per_study[i][1])
            # likelihood-invariant translation: d moves by C z and the latents
            # by -X C z, so effects are not pinned by the current latents
            # (acceptance depends on the priors only)
            chol = np.eye(self.d_sl.stop) if d_chol is None else d_chol
            dims = (*range(self.d_sl.stop), *range(self.eps_sl.start, self.eps_sl.stop))
            factor = np.vstack([chol, -(self.X @ chol)])
            blocks.append(Block("d-shift", dims, scale=0.3, factor=factor))
            partials.append(lambda x: self._d_prior(x) + self._alpha_prior(x) + self._eps_prior(x))
        return blocks, partials


class _ContrastModel(_Model):
    """Marginalized contrast-level model: y* ~ N(U* V d, S* + sigma^2 Sigma*).

    It has no per-study coordinates; its sampling parameterization differs
    from the reported one in sigma alone, which it samples as log sigma."""

    def __init__(self, blocks, network: Network, spec: ModelSpec):
        super().__init__(network, spec, ContrastDesign(blocks, network.components))

    def loglik(self, x: np.ndarray) -> float:
        sigma2 = math.exp(2.0 * x[self.sigma_pos]) if self.spec.random_effects else 0.0
        return self.design.logpdf(x[self.d_sl], sigma2)


@dataclass
class DicResult:
    """Mean deviance, deviance at the posterior mean, p_D and DIC (see ``dic``)."""

    deviance_bar: float
    deviance_at_mean: float
    p_d: float
    dic: float


@dataclass
class BayesFit:
    """A fitted model: its reported posterior sample and the model, with its spec and network."""

    sample: PosteriorSample
    model: object

    @property
    def spec(self) -> ModelSpec:
        return self.model.spec

    @property
    def network(self) -> Network:
        return self.model.network

    @property
    def names(self) -> tuple[str, ...]:
        return self.model.names

    @property
    def max_rhat(self) -> float:
        return float(np.max(self.sample.rhat))

    def summary(self, level: float = 0.95) -> dict[str, dict[str, float]]:
        return summarize(self.sample, level)

    def component_effect_draws(self) -> np.ndarray:
        """Pooled draws of per-component effects, one column per network component.

        For the anchored kind the anchor's column is identically zero, so the
        columns line up with ``network.components`` for every model.
        """
        pooled = self.sample.pooled()
        full = np.zeros((pooled.shape[0], self.network.n_components))
        full[:, self.model.d_columns] = pooled[:, self.model.d_sl]
        return full

    def sigma_draws(self) -> np.ndarray | None:
        if self.model.sigma_pos is None:
            return None
        return self.sample.pooled()[:, self.model.sigma_pos]

    def treatment_effect_draws(self, treatments) -> np.ndarray:
        """Pooled draws of treatment-level effects, one column per treatment."""
        M = incidence_matrix(treatments, self.network.components)
        return self.component_effect_draws() @ M.T


def _validate(spec: ModelSpec, data, network: Network):
    if not data:
        raise EmptyNetwork("no data to fit")
    arm_kind = spec.kind in ("anchored-arm", "unanchored-arm")
    if arm_kind and not all(isinstance(s, Study) for s in data):
        raise CnmaError(f"{spec.kind} expects arm-level studies")
    if not arm_kind and not all(isinstance(b, ContrastBlock) for b in data):
        raise CnmaError(f"{spec.kind} expects contrast blocks")
    if arm_kind:
        # an arm kind names its parameters by study id
        _check_study_ids(data)
    if spec.kind == "anchored-arm" and spec.anchor not in network.treatments:
        raise UnknownAnchor(f"anchor {spec.anchor.label!r} is not a treatment in the network")


def _d_preconditioner(model) -> np.ndarray | None:
    """Proposal shape for the effect block: the Cholesky factor of the inverse
    of the fixed-effects GLS information X'WX of the model's X, with W that of
    ``model.design``, plus the prior precision. X has a column per sampled
    effect, so every kind takes the same path. On failure the effect block
    falls back to an unshaped proposal, with a warning.
    """
    try:
        X = model.X
        info = X.T @ model.design.weigh(0.0, X)
        info += np.eye(X.shape[1]) / model.spec.priors.d_variance
        return np.linalg.cholesky(np.linalg.inv(info))
    except np.linalg.LinAlgError as exc:
        logger.warning("%s: no effect-block preconditioner (%s: %s); using an unshaped proposal",
                       model.spec.kind, type(exc).__name__, exc)
        return None


def _initial_vectors(model, config: McmcConfig) -> np.ndarray:
    """Overdispersed per-chain starts around the neutral point, as reported vectors."""
    base = model.reported_draws(model.initial_vector())
    inits = np.tile(base, (config.n_chains, 1))
    for c in range(config.n_chains):
        jitter = rng_stream(config.seed, 90_000 + c).uniform(-0.5, 0.5, size=base.size)
        inits[c] += model.jitter_scale * jitter
        if model.sigma_pos is not None:
            inits[c, model.sigma_pos] *= 1.0 + 0.5 * jitter[model.sigma_pos]
    return inits


def _warn_if_unconverged(spec: ModelSpec, sample: PosteriorSample) -> None:
    """Log one warning, naming the worst parameter by R-hat and by ESS, when
    either misses its limit."""
    i, j = int(np.argmax(sample.rhat)), int(np.argmin(sample.ess))
    if sample.rhat[i] > RHAT_LIMIT or sample.ess[j] < ESS_LIMIT:
        logger.warning(
            "%s: chains may not have converged: max R-hat %.3f at %s (limit %g), "
            "min ESS %.0f at %s (limit %g)", spec.kind, sample.rhat[i], sample.names[i],
            RHAT_LIMIT, sample.ess[j], sample.names[j], ESS_LIMIT,
        )


def build_model(spec: ModelSpec, data, network: Network):
    """The model of ``spec`` for ``data``; a design whose columns for the
    sampled effects have rank below their number is refused, since the prior
    alone would fix the effects it leaves free. ``data`` may be a generator."""
    data = tuple(data)
    _validate(spec, data, network)
    if spec.kind in ("anchored-arm", "unanchored-arm"):
        model = _ArmModel(data, network, spec)
    else:
        model = _ContrastModel(data, network, spec)
    n_columns = model.d_columns.size
    rank = n_columns - design._null_space(model.X).shape[1]
    if rank < n_columns:
        raise NotIdentifiable(
            f"{spec.kind}: the contrast design has rank {rank} for "
            f"{n_columns} effect columns"
        )
    return model


def fit(
    spec: ModelSpec,
    data,
    network: Network,
    mcmc_config: McmcConfig | None = None,
) -> BayesFit:
    """Sample the posterior of one model and return the assembled fit: validate
    the config, build the model, let its ``sample`` draw in the sampling
    parameterization, map the draws to the reported one and warn if unconverged."""
    config = mcmc_config if mcmc_config is not None else McmcConfig()
    if not isinstance(config, McmcConfig):
        raise CnmaError(f"mcmc_config must be an McmcConfig, got {mcmc_config!r}")
    model = build_model(spec, data, network)
    raw = model.sample(config)
    sample = dataclasses.replace(raw, names=model.names, draws=model.reported_draws(raw.draws))
    _warn_if_unconverged(spec, sample)
    return BayesFit(sample=sample, model=model)


def dic(fit_result: BayesFit) -> DicResult:
    """Conditional deviance information criterion for the arm-level kinds.

    The deviance conditions on the latent study effects: D(theta) is minus
    twice the binomial log likelihood at (d, alpha, eps), averaged over the
    kept draws; the effective parameter count compares against D at the
    posterior mean of every sampled quantity.
    """
    model = fit_result.model
    if not isinstance(model, _ArmModel):
        raise CnmaError("dic is defined for the arm-level model kinds")

    pooled = fit_result.sample.pooled()
    deviance_bar = float(np.mean(-2.0 * model.loglik(model.to_internal(pooled))))
    deviance_at_mean = float(-2.0 * model.loglik(model.to_internal(pooled.mean(axis=0))))
    p_d = deviance_bar - deviance_at_mean
    return DicResult(deviance_bar, deviance_at_mean, p_d, dic=deviance_bar + p_d)
