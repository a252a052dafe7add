"""Adaptive random-walk Metropolis with block updates.

The target is supplied as a log posterior over a flat parameter vector plus a
partition of the coordinates into blocks. Each block gets a Gaussian random
walk (optionally shaped by a fixed covariance factor, optionally multiplicative
for positive parameters) whose scalar step size is tuned by Robbins-Monro
toward a target acceptance rate during burn-in only; scales are frozen
afterwards so the kept draws target the exact posterior.

``run_chains`` takes one start per chain and one partial log posterior per
block: a block's partial must include every term of the log posterior that
depends on that block's coordinates (the full log posterior will do), and is
used in place of it when forming the acceptance ratio. This keeps per-study
updates O(study) instead of O(data). ``partials`` is keyword-only, so that a
wrapper of ``run_chains`` that counts the partial calls always finds them.

The sampler moves the state vector in place: a proposal writes the block's
new coordinates into ``x`` and a rejection writes the saved ones back. A
partial (or the log posterior) must therefore neither keep a reference to
``x`` nor modify it; it may only read it during the call.

Each proposal evaluates its block's partial at the current state before it
moves ``x``, and that state is the one the previous block left. A partial may
therefore memoise its latest values, if it is a pure function of ``x``'s
values and keeps no reference to ``x`` (``bayes`` keys on ``x.tobytes()``).

Convergence diagnostics are functions of the draws alone: ``rhat`` and
``ess`` take (n_chains, n_draws, n_params) draws and give one value per
parameter; a ``PosteriorSample`` derives its ``rhat`` and ``ess`` from its own
``draws``.
They and ``summarize`` walk the parameters ``CHUNK_BYTES`` of draws at a
time, each chunk with the arithmetic one parameter would get alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import McmcError

# Robbins-Monro acceptance targets: a block of one coordinate, a larger block
TARGET_RATE_SCALAR = 0.44
TARGET_RATE_BLOCK = 0.234
# burn-in iterations per adaptation window
ADAPTATION_WINDOW = 50
# consecutive all-rejected adaptation windows before declaring scale collapse
COLLAPSE_WINDOWS = 20
# the per-parameter statistics take the parameters in chunks whose draws fill
# at most this many bytes (one parameter at least), so their scratch memory, a
# few times one chunk, does not grow with the number of parameters
CHUNK_BYTES = 2**23


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent counter-based RNG stream.

    Identical (seed, stream) pairs reproduce identical draws; distinct stream
    ids give statistically independent streams, so replicates and chains can
    own one each and run in parallel reproducibly.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class McmcConfig:
    """Chains, burn-in and kept iterations per chain, and the seed of every chain."""

    n_chains: int = 2
    burn_in: int = 2000
    keep: int = 5000
    seed: int = 0

    def __post_init__(self):
        # the diagnostics need >= 2 chains of >= 4 draws (see _per_parameter)
        for name, least in (("n_chains", 2), ("burn_in", 1), ("keep", 4), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise McmcError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise McmcError(f"{name} must be >= {least}, got {value}")


@dataclass
class Block:
    """One update block: coordinate indices plus proposal settings.

    With ``shift_map`` M set (shape: len(dims)-k by k), the block proposes a
    coupled translation: the first k coordinates move by a random step delta
    and the remaining ones by -M @ delta. The move is volume preserving and
    symmetric, so no acceptance correction is needed; it is useful when the
    coupled direction leaves part of the target invariant.
    """

    name: str
    dims: tuple[int, ...]
    scale: float = 0.1
    log_scale: bool = False
    cov_chol: np.ndarray | None = None
    shift_map: np.ndarray | None = None

    def __post_init__(self):
        # a step of size 0 never moves, yet its chains agree and accept every
        # proposal, so they would read as converged
        if not 0.0 < self.scale < math.inf:
            raise McmcError(f"block {self.name!r}: scale must be finite and > 0, not {self.scale}")


@dataclass
class PosteriorSample:
    """Kept draws with the sampler's acceptance rates and the step sizes
    burn-in adapted, which the kept draws were taken with.

    ``rhat`` and ``ess`` are computed from ``draws`` on first use, one value
    per parameter, so they always describe the draws the sample holds.
    """

    names: tuple[str, ...]
    draws: np.ndarray  # (n_chains, kept, dims)
    acceptance: dict[str, float]
    scales_after_burnin: dict[str, float]

    @cached_property
    def rhat(self) -> np.ndarray:
        return rhat(self.draws)

    @cached_property
    def ess(self) -> np.ndarray:
        return ess(self.draws)

    def pooled(self) -> np.ndarray:
        """All chains stacked: (n_chains * kept, dims)."""
        return self.draws.reshape(-1, self.draws.shape[-1])


def _check_blocks(blocks, dim: int) -> None:
    # plain blocks must partition the space; shift blocks may overlap them
    seen: set[int] = set()
    for b in blocks:
        if b.shift_map is not None:
            k = b.shift_map.shape[1]
            if b.shift_map.shape[0] != len(b.dims) - k:
                raise McmcError(f"block {b.name!r}: shift_map shape mismatch")
            continue
        for d in b.dims:
            if d in seen:
                raise McmcError(f"dimension {d} appears in two blocks")
            seen.add(d)
    if seen != set(range(dim)):
        raise McmcError("plain blocks must partition all dimensions")


def _coordinates(block: Block):
    """Where a block's coordinates sit in the state vector: an int for a
    1-coordinate additive block (the sampler's scalar path), a slice when the
    coordinates are contiguous, an index array otherwise."""
    dims = tuple(int(d) for d in block.dims)
    if (
        len(dims) == 1
        and not block.log_scale
        and block.cov_chol is None
        and block.shift_map is None
    ):
        return dims[0]
    if dims and dims == tuple(range(dims[0], dims[0] + len(dims))):
        return slice(dims[0], dims[0] + len(dims))
    return np.array(dims, dtype=int)


def _run_single_chain(logpost, x0, blocks, config, partials, chain_index):
    rng = rng_stream(config.seed, chain_index)
    normal, uniform = rng.standard_normal, rng.random
    x = np.array(x0, dtype=float)
    dim = x.size
    lp0 = logpost(x)
    if not np.isfinite(lp0):
        raise McmcError(f"log posterior not finite at init of chain {chain_index}")

    n_blocks = len(blocks)
    scales = [float(b.scale) for b in blocks]
    targets = [TARGET_RATE_SCALAR if len(b.dims) == 1 else TARGET_RATE_BLOCK for b in blocks]
    where = [_coordinates(b) for b in blocks]

    accepts = [0] * n_blocks
    window_accepts = [0] * n_blocks
    zero_windows = [0] * n_blocks

    burn_in = config.burn_in
    kept = np.empty((config.keep, dim))

    for it in range(burn_in + config.keep):
        adapting = it < burn_in
        if adapting:
            # Robbins-Monro gain, decaying per proposal; damped at the start
            gain = (10.0 + it) ** -0.6
        for bi in range(n_blocks):
            block, at, evaluate = blocks[bi], where[bi], partials[bi]
            # propose in place; ``saved`` restores the block on rejection
            if isinstance(at, int):
                saved = x.item(at)
                step = scales[bi] * normal()
                lp_old = evaluate(x)
                x[at] = saved + step
                jacobian = 0.0
            else:
                saved = x[at].copy()
                shift_map = block.shift_map
                z = normal(saved.size if shift_map is None else shift_map.shape[1])
                step = scales[bi] * (block.cov_chol @ z if block.cov_chol is not None else z)
                if shift_map is not None:
                    step = np.concatenate([step, -(shift_map @ step)])
                if block.log_scale:
                    new = saved * np.exp(step)
                    jacobian = float(step.sum())
                else:
                    new = saved + step
                    jacobian = 0.0
                lp_old = evaluate(x)
                x[at] = new
            lp_new = evaluate(x)
            if math.isnan(lp_old) or math.isnan(lp_new):
                raise McmcError(f"log posterior returned NaN in block {block.name!r}")

            accepted = math.log(uniform()) < lp_new - lp_old + jacobian
            if accepted:
                window_accepts[bi] += 1
                if not adapting:
                    accepts[bi] += 1
            else:
                x[at] = saved
            if adapting:
                scales[bi] *= math.exp(gain * ((1.0 if accepted else 0.0) - targets[bi]))

        if adapting and (it + 1) % ADAPTATION_WINDOW == 0:
            # collapse watch: a block rejecting everything for many windows in
            # a row cannot be rescued by further shrinking
            for bi in range(n_blocks):
                if window_accepts[bi] == 0:
                    zero_windows[bi] += 1
                    if zero_windows[bi] >= COLLAPSE_WINDOWS:
                        raise McmcError(
                            f"block {blocks[bi].name!r}: every proposal rejected for "
                            f"{COLLAPSE_WINDOWS} adaptation windows (scale collapse)"
                        )
                else:
                    zero_windows[bi] = 0
            window_accepts = [0] * n_blocks

        if not adapting:
            kept[it - burn_in] = x

    rates = np.array(accepts) / config.keep
    # adaptation stops with burn-in, so these are the scales after it
    return kept, rates, scales


def run_chains(logpost, inits, blocks, config: McmcConfig, *, partials) -> PosteriorSample:
    """Run independent chains and assemble a PosteriorSample.

    ``inits`` holds one start vector per chain, (n_chains, dim);
    ``partials`` one callable per block (see module docstring).
    """
    blocks = list(blocks)
    inits = np.asarray(inits, dtype=float)
    if inits.ndim != 2 or inits.shape[0] != config.n_chains:
        raise McmcError(f"need one init per chain, got shape {inits.shape}")
    dim = inits.shape[1]
    _check_blocks(blocks, dim)
    if len(partials) != len(blocks):
        raise McmcError("need one partial log posterior per block")

    draws = np.empty((config.n_chains, config.keep, dim))
    rates = np.zeros(len(blocks))
    scales: dict[str, float] = {}
    for c in range(config.n_chains):
        kept, chain_rates, chain_scales = _run_single_chain(
            logpost, inits[c], blocks, config, partials, c
        )
        draws[c] = kept
        rates += chain_rates / config.n_chains
        for bi, b in enumerate(blocks):
            scales[f"{b.name}[{c}]"] = chain_scales[bi]

    if not np.all(np.isfinite(draws)):
        raise McmcError("non-finite draws")

    return PosteriorSample(
        names=tuple(f"p{i}" for i in range(dim)),
        draws=draws,
        acceptance={b.name: float(rates[bi]) for bi, b in enumerate(blocks)},
        scales_after_burnin=scales,
    )


def _chunks(columns: np.ndarray):
    """Copies of (n_chains, n_draws, n_params) ``columns``, at most
    CHUNK_BYTES of draws (one parameter at least) each, as
    (n_params_in_chunk, n_chains, n_draws) with the draws contiguous."""
    n_chains, n_draws, n_params = columns.shape
    width = max(1, CHUNK_BYTES // (columns.itemsize * n_chains * n_draws))
    for j in range(0, n_params, width):
        yield np.moveaxis(columns[..., j : j + width], -1, 0).copy()


def _per_parameter(kernel, chains: np.ndarray) -> np.ndarray:
    """``kernel``, which maps (k, n_chains, n_draws) draws to k values, over
    every chunk of (n_chains, n_draws, n_params) ``chains``. R-hat compares
    >= 2 chains and splits each in half, so needs >= 4 draws."""
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 3 or arr.shape[0] < 2 or arr.shape[1] < 4:
        raise McmcError(f"need (chains >= 2, draws >= 4, params), got shape {arr.shape}")
    return np.concatenate([kernel(x) for x in _chunks(arr)] or [np.empty(0)])


def rhat(chains: np.ndarray) -> np.ndarray:
    """Split-chain potential scale reduction factor of each parameter of
    (n_chains, n_draws, n_params) ``chains``.

    Each chain is split in half, so stuck-but-drifting single chains are also
    flagged. A parameter whose chains sit at distinct constants gets inf.
    """
    return _per_parameter(_rhat, chains)


def _rhat(x: np.ndarray) -> np.ndarray:
    """R-hat per parameter of (n_params, n_chains, n_draws) draws."""
    half = x.shape[2] // 2
    halves = (x[..., :half], x[..., half : 2 * half])
    w = np.concatenate([h.var(axis=-1, ddof=1) for h in halves], axis=1).mean(axis=-1)
    b = half * np.concatenate([h.mean(axis=-1) for h in halves], axis=1).var(axis=-1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sqrt(((half - 1) / half * w + b / half) / w)
    return np.where(w == 0.0, np.where(b == 0.0, 1.0, np.inf), out)


def _mean_periodogram(centered: np.ndarray, size: int) -> np.ndarray:
    """|FFT|^2 of each zero-padded chain, averaged over chains; squared in
    the FFT's own buffer, so the scratch memory is that one array."""
    spectrum = np.fft.rfft(centered, n=size, axis=-1)
    power, imag = spectrum.real, spectrum.imag
    power *= power
    imag *= imag
    power += imag
    return power.mean(axis=1)


def ess(chains: np.ndarray) -> np.ndarray:
    """Effective sample size of each parameter of (n_chains, n_draws,
    n_params) ``chains``, from pooled-chain autocorrelations.

    FFT autocovariances per chain are combined across chains and summed with
    Geyer's initial monotone positive sequence rule.
    """
    return _per_parameter(_ess, chains)


def _ess(x: np.ndarray) -> np.ndarray:
    """ESS per parameter of (n_params, n_chains, n_draws) draws, centred in place."""
    k, m, n = x.shape
    means = x.mean(axis=-1)
    w = x.var(axis=-1, ddof=1).mean(axis=-1)
    var_plus = (n - 1) / n * w + n * means.var(axis=-1, ddof=1) / n
    x -= means[..., None]
    # biased autocovariance via FFT, averaged over chains; a length of at
    # least 2n leaves lags 0..n-1 free of wrap-around, and 3 * 2^j, when it
    # is long enough, needs a quarter less memory than the power of two
    size = 2 ** math.ceil(math.log2(2 * n))
    size = 3 * size // 4 if 3 * size // 4 >= 2 * n else size
    acov = np.fft.irfft(_mean_periodogram(x, size), n=size, axis=-1)[:, :n] / n
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 1.0 - (w[:, None] - acov) / var_plus[:, None]
        # Geyer: tau = -1 + 2 * sum of even/odd pair sums, kept while
        # positive and forced non-increasing, summed left to right
        pairs = rho[:, 0 : n - 1 : 2] + rho[:, 1:n:2]
        kept = np.logical_and.accumulate(pairs > 0, axis=-1)
        terms = np.where(kept, 2.0 * np.minimum.accumulate(pairs, axis=-1), 0.0)
        tau = np.cumsum(np.concatenate([np.full((k, 1), -1.0), terms], axis=-1), axis=-1)
        tau = np.maximum(tau[:, -1], 1e-3)
    return np.where(var_plus == 0.0, m * n, np.minimum(m * n, m * n / tau))


def summarize(sample: PosteriorSample, level: float = 0.95) -> dict[str, dict[str, float]]:
    """Pooled-chain mean, median, and equal-tailed interval per dimension;
    the median and the interval bounds interpolate linearly (type 7)."""
    if not 0.0 < level < 1.0:
        raise McmcError("level must be in (0, 1)")
    if 0 in sample.draws.shape[:2]:
        raise McmcError("summarize needs at least one draw")
    tail = (1.0 - level) / 2.0
    stats = []
    for x in _chunks(sample.draws):
        pooled = x.reshape(x.shape[0], -1)
        lower, upper = np.quantile(pooled, [tail, 1.0 - tail], axis=-1, method="linear")
        stats.extend(zip(pooled.mean(axis=-1), np.median(pooled, axis=-1), lower, upper))
    return {
        name: dict(zip(("mean", "median", "lower", "upper"), map(float, row)))
        for name, row in zip(sample.names, stats)
    }
