"""Adaptive random-walk Metropolis with block updates.

The target is supplied as a log posterior over a flat parameter vector plus a
partition of the coordinates into blocks. Each block gets one additive
Gaussian random walk on its coordinates, scale * L z with z standard normal and
a fixed factor L; a constrained parameter is the model's to map to an
unconstrained coordinate, Jacobian included. The scalar step size is tuned by
Robbins-Monro toward a target acceptance rate during burn-in only; scales are
frozen afterwards so the kept draws target the exact posterior. A tall L (a
translation move, Liu & Sabatti 2000) may overlap the partition.

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

Each chain resolves every block once into a plan (``_plans``). A block of
one coordinate without a factor takes the scalar path: its coordinate is
read and written as a Python float through a memoryview of ``x``, and its
step is one scalar normal draw. Every other block moves a slice or an index
array of ``x``. Per block and sweep, either path draws its normals, then
one uniform for the acceptance test.

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
# few times one chunk, does not grow with the number of parameters. At 256 KB
# the draws of an arm fit with a few hundred parameters (about 800 KB) take a
# few chunks, so the scratch stays near 1 MB, and each chunk is large enough
# that the loop over them costs no measurable time
CHUNK_BYTES = 2**18


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

    The step adds scale * L z to the coordinates, with z ~ N(0, I_k) and
    ``factor`` L len(dims) x k (None means the identity). It is symmetric
    whatever L is. A tall L (k < len(dims)) moves the coordinates along its
    columns only, so its block may overlap the partition.
    """

    name: str
    dims: tuple[int, ...]
    scale: float
    factor: np.ndarray | None = None

    def __post_init__(self):
        # a step of size 0 never moves, yet its chains agree and accept every
        # proposal, so they would read as converged
        if not 0.0 < self.scale < math.inf:
            raise McmcError(f"block {self.name!r}: scale must be finite and > 0, not {self.scale}")


@dataclass
class PosteriorSample:
    """Kept draws with each block's acceptance rate after burn-in, averaged
    over the chains.

    ``rhat`` and ``ess`` are computed from ``draws`` on first use, one value
    per parameter, so they always describe the draws the sample holds.
    """

    names: tuple[str, ...]
    draws: np.ndarray  # (n_chains, kept, dims)
    acceptance: dict[str, float]

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
    # every block moves distinct coordinates of x; blocks with a tall factor
    # may overlap, the others must partition
    seen: set[int] = set()
    for b in blocks:
        if len(set(b.dims)) != len(b.dims) or not all(
            isinstance(d, numbers.Integral) and 0 <= d < dim for d in b.dims
        ):
            raise McmcError(
                f"block {b.name!r}: dims must be distinct integers in [0, {dim}), got {b.dims}"
            )
        if b.factor is not None:
            shape = np.shape(b.factor)
            if len(shape) != 2 or shape[0] != len(b.dims):
                raise McmcError(f"block {b.name!r}: factor needs one row per coordinate")
            if shape[1] < shape[0]:
                continue
        for d in b.dims:
            if d in seen:
                raise McmcError(f"dimension {d} appears in two blocks")
            seen.add(d)
    if seen != set(range(dim)):
        raise McmcError("blocks without a tall factor must partition all dimensions")


def _plans(blocks, partials) -> list[tuple]:
    """Each block resolved once per chain into the tuple the sampler's loop
    unpacks: (index, partial, target rate, pos, at, factor, size).

    A block of one coordinate without a factor takes the scalar path: pos is
    its coordinate, which the loop reads and writes as a Python float through
    a memoryview of the state, and it draws one scalar normal. Every other
    block has pos -1 and moves its coordinates ``at``, a slice when they are
    contiguous and an index array otherwise, by scale * L z with ``size``
    normals in z.
    """
    plans = []
    for bi, (block, partial) in enumerate(zip(blocks, partials)):
        dims, factor = tuple(int(d) for d in block.dims), block.factor
        target = TARGET_RATE_SCALAR if len(dims) == 1 else TARGET_RATE_BLOCK
        if len(dims) == 1 and factor is None:
            plans.append((bi, partial, target, dims[0], None, None, 1))
            continue
        if dims and dims == tuple(range(dims[0], dims[0] + len(dims))):
            at = slice(dims[0], dims[0] + len(dims))
        else:
            at = np.array(dims, dtype=int)
        size = len(dims) if factor is None else factor.shape[1]
        plans.append((bi, partial, target, -1, at, factor, size))
    return plans


def _run_single_chain(logpost, x0, blocks, config, partials, chain_index, kept):
    """Run chain ``chain_index`` and write its draws after burn-in into the
    rows of ``kept``, (keep, dim); return each block's acceptance rate after
    burn-in."""
    rng = rng_stream(config.seed, chain_index)
    normal, uniform = rng.standard_normal, rng.random
    log, exp, inf = math.log, math.exp, math.inf
    x = np.array(x0, dtype=float)
    lp0 = logpost(x)
    if not np.isfinite(lp0):
        raise McmcError(f"log posterior not finite at init of chain {chain_index}")

    n_blocks = len(blocks)
    scales = [float(b.scale) for b in blocks]
    plans = _plans(blocks, partials)
    # the scalar path's view of x; it reads and writes Python floats
    state = memoryview(x)

    accepts = [0] * n_blocks
    # each block's latest accepted burn-in iteration, for the collapse watch
    latest = [-1] * n_blocks

    burn_in = config.burn_in

    for it in range(burn_in + config.keep):
        adapting = it < burn_in
        if adapting:
            # Robbins-Monro gain, decaying per proposal; damped at the start
            gain = (10.0 + it) ** -0.6
        for bi, evaluate, target, pos, at, factor, size in plans:
            scale = scales[bi]
            # propose in place; ``saved`` restores the block on rejection
            if pos >= 0:
                saved = state[pos]
                step = scale * normal()
                lp_old = evaluate(x)
                state[pos] = saved + step
            else:
                saved = x[at].copy()
                z = normal(size)
                step = scale * (z if factor is None else factor @ z)
                lp_old = evaluate(x)
                x[at] = saved + step
            lp_new = evaluate(x)
            # NaN is the one value unequal to itself
            if lp_old != lp_old or lp_new != lp_new:
                raise McmcError(f"log posterior returned NaN in block {blocks[bi].name!r}")

            # random() draws from [0, 1); log 0 is -inf, so a uniform of 0
            # accepts any finite proposal
            u = uniform()
            accepted = (log(u) if u > 0.0 else -inf) < lp_new - lp_old
            if accepted:
                if adapting:
                    latest[bi] = it
                else:
                    accepts[bi] += 1
            elif pos >= 0:
                state[pos] = saved
            else:
                x[at] = saved
            if adapting:
                scales[bi] = scale * exp(gain * ((1.0 if accepted else 0.0) - target))

        if adapting and (it + 1) % ADAPTATION_WINDOW == 0:
            # collapse watch: a block rejecting everything for many windows in
            # a row cannot be rescued by further shrinking
            for bi in range(n_blocks):
                if it - latest[bi] >= COLLAPSE_WINDOWS * ADAPTATION_WINDOW:
                    raise McmcError(
                        f"block {blocks[bi].name!r}: every proposal rejected for "
                        f"{COLLAPSE_WINDOWS} adaptation windows (scale collapse)"
                    )

        if not adapting:
            kept[it - burn_in] = x

    return np.array(accepts) / config.keep


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
    for c in range(config.n_chains):
        chain_rates = _run_single_chain(logpost, inits[c], blocks, config, partials, c, draws[c])
        rates += chain_rates / config.n_chains

    if not np.all(np.isfinite(draws)):
        raise McmcError("non-finite draws")

    return PosteriorSample(
        names=tuple(f"p{i}" for i in range(dim)),
        draws=draws,
        acceptance={b.name: float(rates[bi]) for bi, b in enumerate(blocks)},
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
