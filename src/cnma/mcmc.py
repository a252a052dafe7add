"""Adaptive random-walk Metropolis with block updates.

The target is supplied as a log posterior over a flat parameter vector plus a
partition of the coordinates into blocks. Each block gets a Gaussian random
walk (optionally shaped by a fixed covariance factor, optionally multiplicative
for positive parameters) whose scalar step size is tuned by Robbins-Monro
toward a target acceptance rate during burn-in only; scales are frozen
afterwards so the kept draws target the exact posterior.

Per-block partial log posteriors may be supplied: a block's partial must
include every term of the log posterior that depends on that block's
coordinates, and is used in place of the full log posterior when forming the
acceptance ratio. This keeps per-study updates O(study) instead of O(data).

The sampler moves the state vector in place: a proposal writes the block's
new coordinates into ``x`` and a rejection writes the saved ones back. A
partial (or the log posterior) must therefore neither keep a reference to
``x`` nor modify it; it may only read it during the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import McmcError
from .numerics import quantile, rng_stream

# Robbins-Monro acceptance targets: a block of one coordinate, a larger block
TARGET_RATE_SCALAR = 0.44
TARGET_RATE_BLOCK = 0.234
# burn-in iterations per adaptation window
ADAPTATION_WINDOW = 50
# consecutive all-rejected adaptation windows before declaring scale collapse
COLLAPSE_WINDOWS = 20


@dataclass
class McmcConfig:
    n_chains: int = 2
    burn_in: int = 2000
    keep: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < 2:
            raise McmcError("need >= 2 chains for convergence diagnostics")
        if self.burn_in <= 0:
            raise McmcError("burn_in must be > 0")
        if self.keep < 4:
            # rhat splits each chain in half and needs >= 4 draws per chain
            raise McmcError("keep must be >= 4")


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


@dataclass
class PosteriorSample:
    names: tuple[str, ...]
    draws: np.ndarray  # (n_chains, kept, dims)
    acceptance: dict[str, float]
    rhat: np.ndarray
    ess: np.ndarray
    scales_after_burnin: dict[str, float]
    scales_final: dict[str, float]

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
    evaluators = partials if partials is not None else [logpost] * n_blocks
    scales = [float(b.scale) for b in blocks]
    targets = [TARGET_RATE_SCALAR if len(b.dims) == 1 else TARGET_RATE_BLOCK for b in blocks]
    where = [_coordinates(b) for b in blocks]

    accepts = [0] * n_blocks
    window_accepts = [0] * n_blocks
    zero_windows = [0] * n_blocks

    burn_in = config.burn_in
    kept = np.empty((config.keep, dim))
    scales_after_burnin = None

    for it in range(burn_in + config.keep):
        adapting = it < burn_in
        if adapting:
            # Robbins-Monro gain, decaying per proposal; damped at the start
            gain = (10.0 + it) ** -0.6
        for bi in range(n_blocks):
            block, at, evaluate = blocks[bi], where[bi], evaluators[bi]
            # propose in place; ``saved`` restores the block on rejection
            if isinstance(at, int):
                saved = x.item(at)
                step = scales[bi] * normal()
                lp_old = evaluate(x)
                x[at] = saved + step
                jacobian = 0.0
            else:
                saved = x[at].copy()
                if block.shift_map is not None:
                    k = block.shift_map.shape[1]
                    z = normal(k)
                    delta = scales[bi] * (block.cov_chol @ z if block.cov_chol is not None else z)
                    new = saved.copy()
                    new[:k] += delta
                    new[k:] -= block.shift_map @ delta
                    jacobian = 0.0
                else:
                    z = normal(saved.size)
                    step = scales[bi] * (block.cov_chol @ z if block.cov_chol is not None else z)
                    if block.log_scale:
                        new = saved * np.exp(step)
                        jacobian = float(np.sum(step))
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

        if it == burn_in - 1:
            scales_after_burnin = list(scales)

        if not adapting:
            kept[it - burn_in] = x

    rates = np.array(accepts) / config.keep
    return kept, rates, scales_after_burnin, scales


def run_chains(logpost, init, blocks, config: McmcConfig, partials=None) -> PosteriorSample:
    """Run independent chains and assemble a PosteriorSample.

    ``init`` is a single vector (shared by every chain) or one vector per
    chain for overdispersed starts. ``partials``, when given, is one callable
    per block (see module docstring).
    """
    blocks = list(blocks)
    init_arr = np.asarray(init, dtype=float)
    if init_arr.ndim == 1:
        inits = [init_arr] * config.n_chains
    else:
        if init_arr.shape[0] != config.n_chains:
            raise McmcError("need one init per chain")
        inits = [init_arr[i] for i in range(config.n_chains)]
    dim = inits[0].size
    _check_blocks(blocks, dim)
    if partials is not None and len(partials) != len(blocks):
        raise McmcError("need one partial log posterior per block")

    draws = np.empty((config.n_chains, config.keep, dim))
    rates = np.zeros(len(blocks))
    scales_ab: dict[str, float] = {}
    scales_fin: dict[str, float] = {}
    for c in range(config.n_chains):
        kept, chain_rates, after_burnin, final = _run_single_chain(
            logpost, inits[c], blocks, config, partials, c
        )
        draws[c] = kept
        rates += chain_rates / config.n_chains
        for bi, b in enumerate(blocks):
            scales_ab[f"{b.name}[{c}]"] = float(after_burnin[bi])
            scales_fin[f"{b.name}[{c}]"] = float(final[bi])

    if not np.all(np.isfinite(draws)):
        raise McmcError("non-finite draws")

    names = tuple(f"p{i}" for i in range(dim))
    rhats = np.array([rhat(draws[:, :, d]) for d in range(dim)])
    esses = np.array([ess(draws[:, :, d]) for d in range(dim)])
    return PosteriorSample(
        names=names,
        draws=draws,
        acceptance={b.name: float(rates[bi]) for bi, b in enumerate(blocks)},
        rhat=rhats,
        ess=esses,
        scales_after_burnin=scales_ab,
        scales_final=scales_fin,
    )


def rhat(chains: np.ndarray) -> float:
    """Split-chain potential scale reduction factor.

    ``chains`` is (n_chains, n_draws) for one scalar dimension. Each chain is
    split in half, so stuck-but-drifting single chains are also flagged.
    Returns inf when chains sit at distinct constants.
    """
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise McmcError("rhat needs >= 2 chains")
    if arr.shape[1] < 4:
        raise McmcError("rhat needs >= 4 draws per chain")
    half = arr.shape[1] // 2
    split = np.vstack([arr[:, :half], arr[:, half : 2 * half]])
    n = split.shape[1]
    means = split.mean(axis=1)
    variances = split.var(axis=1, ddof=1)
    w = variances.mean()
    b = n * means.var(ddof=1)
    if w == 0.0:
        return 1.0 if b == 0.0 else float("inf")
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))


def ess(chains: np.ndarray) -> float:
    """Effective sample size from pooled-chain autocorrelations.

    FFT autocovariances per chain, combined across chains, summed with the
    initial-monotone-positive-sequence rule.
    """
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 2:
        raise McmcError("ess expects (n_chains, n_draws)")
    m, n = arr.shape
    if n < 4:
        return float(m * n)
    means = arr.mean(axis=1, keepdims=True)
    centered = arr - means
    # biased autocovariance via FFT, per chain
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    fft = np.fft.rfft(centered, n=size, axis=1)
    acov = np.fft.irfft(fft * np.conjugate(fft), n=size, axis=1)[:, :n].real / n
    mean_acov = acov.mean(axis=0)

    w = arr.var(axis=1, ddof=1).mean()
    b = n * arr.mean(axis=1).var(ddof=1) if m > 1 else 0.0
    var_plus = (n - 1) / n * w + (b / n if m > 1 else 0.0)
    if var_plus == 0.0:
        return float(m * n)

    rho = 1.0 - (w - mean_acov) / var_plus
    # Geyer: tau = -1 + 2 * sum of even/odd pair sums, kept while positive
    # and forced non-increasing
    tau = -1.0
    prev_pair = np.inf
    t = 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0:
            break
        pair = min(pair, prev_pair)
        prev_pair = pair
        tau += 2.0 * pair
        t += 2
    tau = max(tau, 1e-3)
    return float(min(m * n, m * n / tau))


def summarize(sample: PosteriorSample, level: float = 0.95) -> dict[str, dict[str, float]]:
    """Pooled-chain mean, median, and equal-tailed interval per dimension."""
    if not 0.0 < level < 1.0:
        raise McmcError("level must be in (0, 1)")
    pooled = sample.pooled()
    tail = (1.0 - level) / 2.0
    out = {}
    for i, name in enumerate(sample.names):
        col = pooled[:, i]
        out[name] = {
            "mean": float(col.mean()),
            "median": float(np.median(col)),
            "lower": quantile(col, tail),
            "upper": quantile(col, 1.0 - tail),
        }
    return out
