import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cnma import mcmc
from cnma.errors import McmcError
from cnma.mcmc import (
    TARGET_RATE_BLOCK,
    TARGET_RATE_SCALAR,
    Block,
    McmcConfig,
    PosteriorSample,
    ess,
    rhat,
    run_chains,
    summarize,
)
from cnma.numerics import rng_stream


def std_normal_logpost(x):
    return float(-0.5 * np.sum(x**2))


def reference_rhat(chains):
    """Split R-hat of one parameter's (n_chains, n_draws) chains, written one
    parameter at a time as the sampler first computed it."""
    arr = np.asarray(chains, dtype=float)
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


def reference_ess(chains):
    """ESS of one parameter's (n_chains, n_draws) chains with Geyer's initial
    monotone positive sequence summed in a loop, as the sampler first did."""
    arr = np.asarray(chains, dtype=float)
    m, n = arr.shape
    if n < 4:
        return float(m * n)
    centered = arr - arr.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    fft = np.fft.rfft(centered, n=size, axis=1)
    acov = np.fft.irfft(fft * np.conjugate(fft), n=size, axis=1)[:, :n] / n
    mean_acov = acov.mean(axis=0)
    w = arr.var(axis=1, ddof=1).mean()
    b = n * arr.mean(axis=1).var(ddof=1) if m > 1 else 0.0
    var_plus = (n - 1) / n * w + (b / n if m > 1 else 0.0)
    if var_plus == 0.0:
        return float(m * n)
    rho = 1.0 - (w - mean_acov) / var_plus
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


def quick_config(**overrides):
    base = dict(n_chains=2, burn_in=500, keep=2000, seed=123)
    base.update(overrides)
    return McmcConfig(**base)


def _copying_reference(logpost, x0, blocks, config, chain_index):
    """The sampler's sweep with a copied state per proposal: kept draws and
    final scales of one chain."""
    rng = rng_stream(config.seed, chain_index)
    x = np.array(x0, dtype=float)
    scales = np.array([b.scale for b in blocks])
    kept = []
    for it in range(config.burn_in + config.keep):
        for bi, block in enumerate(blocks):
            idx = np.asarray(block.dims)
            cur = x[idx]
            chol = block.cov_chol
            if block.shift_map is not None:
                k = block.shift_map.shape[1]
                z = rng.standard_normal(k)
                delta = scales[bi] * (chol @ z if chol is not None else z)
                new = cur.copy()
                new[:k] += delta
                new[k:] -= block.shift_map @ delta
                jacobian = 0.0
            else:
                z = rng.standard_normal(idx.size)
                step = scales[bi] * (chol @ z if chol is not None else z)
                new = cur * np.exp(step) if block.log_scale else cur + step
                jacobian = float(np.sum(step)) if block.log_scale else 0.0
            x_prop = x.copy()
            x_prop[idx] = new
            accepted = math.log(rng.random()) < logpost(x_prop) - logpost(x) + jacobian
            if accepted:
                x = x_prop
            if it < config.burn_in:
                target = TARGET_RATE_SCALAR if idx.size == 1 else TARGET_RATE_BLOCK
                scales[bi] *= math.exp((10.0 + it) ** -0.6 * (float(accepted) - target))
        if it >= config.burn_in:
            kept.append(x)
    return np.array(kept), scales.tolist()


class TestRunChains:
    def test_standard_normal_moments(self):
        config = McmcConfig(n_chains=2, burn_in=1000, keep=5000, seed=7)
        sample = run_chains(
            std_normal_logpost,
            np.array([1.5]),
            [Block("x", (0,), scale=0.5)],
            config,
        )
        pooled = sample.pooled()[:, 0]
        assert abs(pooled.mean()) < 0.08
        assert 0.9 < pooled.var() < 1.1

    def test_vague_prior_with_uniform_sigma(self):
        # d ~ N(0, 1000 I) on 5 dims, sigma ~ Unif(0, 2): no data at all
        def logpost(x):
            sigma = x[5]
            if not 0.0 < sigma < 2.0:
                return -np.inf
            return float(-np.sum(x[:5] ** 2) / 2000.0)

        config = McmcConfig(n_chains=2, burn_in=2000, keep=8000, seed=11)
        blocks = [
            Block("d", tuple(range(5)), scale=20.0),
            Block("sigma", (5,), scale=0.5, log_scale=True),
        ]
        init = np.array([0.0] * 5 + [1.0])
        sample = run_chains(logpost, init, blocks, config)
        sigma_draws = sample.pooled()[:, 5]
        assert sigma_draws.mean() == pytest.approx(1.0, abs=0.05)
        d_draws = sample.pooled()[:, 0]
        assert abs(d_draws.mean()) < 0.25 * np.sqrt(1000)

    def test_symmetric_bimodal_mean_zero(self):
        def logpost(x):
            a = -0.5 * ((x[0] - 0.5) / 0.2) ** 2
            b = -0.5 * ((x[0] + 0.5) / 0.2) ** 2
            return float(np.logaddexp(a, b))

        sample = run_chains(
            logpost,
            np.array([0.0]),
            [Block("x", (0,), scale=0.5)],
            McmcConfig(n_chains=2, burn_in=2000, keep=10000, seed=3),
        )
        assert abs(sample.pooled()[:, 0].mean()) < 0.1

    def test_determinism(self):
        config = quick_config()
        kwargs = dict(
            logpost=std_normal_logpost,
            init=np.array([0.2]),
            blocks=[Block("x", (0,), scale=0.4)],
            config=config,
        )
        a = run_chains(**kwargs)
        b = run_chains(**kwargs)
        assert np.array_equal(a.draws, b.draws)

    def test_adaptation_frozen_after_burnin(self):
        # the kept draws are those of a chain whose scales, after burn-in,
        # stay at the reported ones
        blocks = [Block("x", (0,), scale=2.0)]
        config = quick_config(keep=4000)
        sample = run_chains(std_normal_logpost, np.array([0.0]), blocks, config)
        for c in range(config.n_chains):
            kept, final = _copying_reference(std_normal_logpost, [0.0], blocks, config, c)
            assert np.array_equal(sample.draws[c], kept)
            assert [sample.scales_after_burnin[f"x[{c}]"]] == final

    def test_partials_match_full_logpost(self):
        # two independent coordinates; partials ignore the other coordinate
        def full(x):
            return float(-0.5 * x[0] ** 2 - 0.5 * ((x[1] - 1.0) / 0.5) ** 2)

        def p0(x):
            return float(-0.5 * x[0] ** 2)

        def p1(x):
            return float(-0.5 * ((x[1] - 1.0) / 0.5) ** 2)

        blocks = [Block("a", (0,), 0.8), Block("b", (1,), 0.4)]
        config = McmcConfig(n_chains=2, burn_in=1500, keep=6000, seed=21)
        with_partials = run_chains(full, np.zeros(2), blocks, config, partials=[p0, p1])
        pooled = with_partials.pooled()
        assert pooled[:, 0].mean() == pytest.approx(0.0, abs=0.05)
        assert pooled[:, 1].mean() == pytest.approx(1.0, abs=0.05)
        assert pooled[:, 1].std() == pytest.approx(0.5, abs=0.05)

    def test_block_covariance_shaping(self):
        cov = np.array([[1.0, 0.95], [0.95, 1.0]])
        prec = np.linalg.inv(cov)

        def logpost(x):
            return float(-0.5 * x @ prec @ x)

        chol = np.linalg.cholesky(cov)
        sample = run_chains(
            logpost,
            np.zeros(2),
            [Block("xy", (0, 1), scale=1.0, cov_chol=chol)],
            McmcConfig(n_chains=2, burn_in=1500, keep=6000, seed=5),
        )
        pooled = sample.pooled()
        corr = np.corrcoef(pooled.T)[0, 1]
        assert corr == pytest.approx(0.95, abs=0.05)

    def test_nan_logpost_raises(self):
        def bad(x):
            return float("nan") if x[0] > 0.5 else 0.0

        with pytest.raises(McmcError):
            run_chains(
                bad,
                np.array([0.0]),
                [Block("x", (0,), scale=2.0)],
                quick_config(),
            )

    def test_scale_collapse_detected(self):
        init = np.array([0.0])

        def spike(x):
            return 0.0 if x[0] == 0.0 else -np.inf

        with pytest.raises(McmcError, match="collapse"):
            run_chains(
                spike,
                init,
                [Block("x", (0,), scale=1.0)],
                quick_config(burn_in=2000),
            )

    def test_blocks_must_partition(self):
        # each case: init, blocks, partials and the error it must raise; the
        # last two break the shapes of inits and partials instead
        two = [Block("x", (0,), 0.5), Block("y", (1,), 0.5)]
        shift = Block("s", (0, 1), 0.5, shift_map=np.ones((2, 1)))
        cases = [
            (np.zeros(2), [Block("x", (0,), 0.5)], None, "partition"),
            (np.zeros(2), [Block("x", (0, 1), 0.5), Block("y", (1,), 0.5)], None, "two blocks"),
            (np.zeros(2), two + [shift], None, "shift_map"),
            (np.zeros((3, 2)), two, None, "init per chain"),
            (np.zeros(2), two, [std_normal_logpost], "partial"),
        ]
        for init, blocks, partials, match in cases:
            with pytest.raises(McmcError, match=match):
                run_chains(std_normal_logpost, init, blocks, quick_config(), partials=partials)

    def test_infinite_init_rejected(self):
        def logpost(x):
            return -np.inf

        with pytest.raises(McmcError):
            run_chains(
                logpost, np.zeros(1), [Block("x", (0,), 0.5)], quick_config()
            )

    def test_keep_below_four_rejected(self):
        # rhat needs 4 draws per chain; the config fails before any sweep runs
        with pytest.raises(McmcError, match="keep"):
            McmcConfig(keep=3)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
            ("keep", 10.0),
            ("burn_in", "100"),
            ("n_chains", np.float64(2.0)),
        ],
    )
    def test_config_rejects_non_integer_fields_and_negative_seed(self, field, value):
        with pytest.raises(McmcError, match=field):
            McmcConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        config = McmcConfig(n_chains=np.int64(2), burn_in=np.int32(10), seed=np.uint8(3))
        assert config.seed == 3

    def test_rejected_proposals_restore_every_coordinate(self):
        # every block kind: scalar, contiguous with covariance shaping,
        # multiplicative, and a shift over non-contiguous coordinates; any
        # move is rejected, so every evaluation must see the start bit for bit
        x0 = np.array([0.1, -0.7, 1.3, 0.4, 2.5, -1.9])
        seen = []

        def only_start(x):
            seen.append(np.array_equal(x, x0))
            return 0.0 if seen[-1] else -np.inf

        blocks = [
            Block("a", (0,), 0.5),
            Block("bc", (1, 2), 0.5, cov_chol=np.array([[1.0, 0.0], [0.3, 0.9]])),
            Block("d", (3,), 0.5, log_scale=True),
            Block("e", (4,), 0.5),
            Block("f", (5,), 0.5),
            Block("shift", (0, 3, 5), 0.5, shift_map=np.array([[1.0], [-0.5]])),
        ]
        config = quick_config(burn_in=30, keep=20)
        sample = run_chains(only_start, x0, blocks, config, partials=[only_start] * 6)
        # per proposal: the current state, then the proposed one; the first
        # call of each chain checks its start
        per_chain = len(seen) // config.n_chains
        for chain in (seen[:per_chain], seen[per_chain:]):
            assert all(chain[1::2]) and not any(chain[2::2])
        assert np.array_equal(sample.draws, np.broadcast_to(x0, sample.draws.shape))
        assert all(rate == 0.0 for rate in sample.acceptance.values())

    def test_same_chain_as_copying_reference(self):
        # the sweep proposes in place; this reference copies the state for
        # every proposal, as the sampler once did, and must agree bit for bit
        prec = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])

        def logpost(x):
            if x[4] <= 0.0:
                return -np.inf
            return float(-0.5 * x[:3] @ prec @ x[:3] - x[3] ** 2 - x[4] + np.log(x[4]))

        blocks = [
            Block("a", (0,), 0.8),
            Block("bc", (1, 2), 0.6, cov_chol=np.array([[1.0, 0.0], [0.4, 0.8]])),
            Block("d", (3,), 0.7),
            Block("s", (4,), 0.4, log_scale=True),
            Block("shift", (0, 3, 1), 0.3, shift_map=np.array([[0.5], [1.0]])),
        ]
        config = quick_config(burn_in=200, keep=200)
        x0 = np.array([0.3, -0.2, 0.1, 0.5, 1.2])
        sample = run_chains(logpost, x0, blocks, config)
        for c in range(config.n_chains):
            kept, scales = _copying_reference(logpost, x0, blocks, config, c)
            assert np.array_equal(sample.draws[c], kept)
            assert [sample.scales_after_burnin[f"{b.name}[{c}]"] for b in blocks] == scales

    def test_per_chain_inits(self):
        inits = np.array([[5.0], [-5.0]])
        sample = run_chains(
            std_normal_logpost,
            inits,
            [Block("x", (0,), 0.5)],
            McmcConfig(n_chains=2, burn_in=2000, keep=3000, seed=9),
        )
        assert sample.rhat[0] < 1.05


class TestRhat:
    def test_identical_long_chains(self):
        rng = np.random.default_rng(0)
        chains = rng.normal(size=(2, 10000))
        assert rhat(chains) < 1.01

    def test_constant_distinct_chains(self):
        chains = np.vstack([np.zeros(100), np.ones(100)])
        assert rhat(chains) > 1.1

    def test_identical_constant_chains(self):
        assert rhat(np.zeros((2, 100))) == 1.0

    def test_single_chain_rejected(self):
        with pytest.raises(McmcError):
            rhat(np.zeros((1, 100)))

    def test_split_detects_drift(self):
        # one chain drifting, one stationary: split-chain flags it
        drifting = np.linspace(0, 5, 1000)
        flat = np.zeros(1000)
        assert rhat(np.vstack([drifting, flat])) > 1.1


def random_walk(rng, shape):
    return np.cumsum(rng.normal(size=shape), axis=1)


def diagnostic_inputs():
    """(chains, n_draws, n_params) arrays: noise, a random walk (which the
    Geyer truncation stops early), a constant column and chains at distinct
    constants, at odd and even chain lengths; then noise in three chains."""
    rng = np.random.default_rng(12)
    out = []
    for n in (4, 5, 20, 151, 1000):
        cols = [
            rng.normal(size=(2, n)),
            random_walk(rng, (2, n)),
            0.9 * random_walk(rng, (2, n)) + rng.normal(size=(2, n)),
            np.full((2, n), 2.5),
            np.vstack([np.zeros(n), np.ones(n)]),
        ]
        out.append(np.stack(cols, axis=-1))
    out.append(rng.normal(size=(3, 64, 4)))
    return out


class TestBatchedDiagnostics:
    @pytest.mark.parametrize(
        "draws", diagnostic_inputs(), ids=lambda d: "x".join(map(str, d.shape))
    )
    def test_match_per_column_reference(self, draws):
        batch_rhat, batch_ess = rhat(draws), ess(draws)
        assert batch_rhat.shape == batch_ess.shape == (draws.shape[-1],)
        for j in range(draws.shape[-1]):
            column = draws[:, :, j]
            assert batch_rhat[j] == rhat(column)
            assert batch_ess[j] == ess(column)
            # same arithmetic for R-hat; the batched FFTs may differ in the last bit
            assert batch_rhat[j] == reference_rhat(column)
            assert batch_ess[j] == pytest.approx(reference_ess(column), rel=1e-12)

    def test_edge_values(self):
        draws = diagnostic_inputs()[4]  # 1000 draws per chain
        m, n = draws.shape[:2]
        # a random walk mixes far worse than its draw count
        assert ess(draws)[1] < 0.05 * m * n
        assert rhat(draws)[3] == 1.0 and ess(draws)[3] == m * n
        assert rhat(draws)[4] == np.inf

    def test_bad_shapes_rejected(self):
        for fn in (rhat, ess):
            with pytest.raises(McmcError):
                fn(np.zeros(10))
            with pytest.raises(McmcError):
                fn(np.zeros((2, 10, 1, 1)))
        with pytest.raises(McmcError):
            rhat(np.zeros((1, 10, 3)))

    def test_sample_diagnostics_follow_its_draws(self):
        draws = diagnostic_inputs()[3]
        sample = TestSummarize.sample_from(draws)
        assert np.array_equal(sample.rhat, rhat(draws))
        assert np.array_equal(sample.ess, ess(draws))
        # a copy with other draws does not keep the computed diagnostics
        shorter = dataclasses.replace(sample, draws=draws[:, :40])
        assert np.array_equal(shorter.rhat, rhat(draws[:, :40]))
        assert np.array_equal(shorter.ess, ess(draws[:, :40]))
        assert not np.array_equal(shorter.ess, sample.ess)


class TestEss:
    def test_iid_close_to_n(self):
        rng = np.random.default_rng(1)
        chains = rng.normal(size=(2, 5000))
        assert ess(chains) > 0.5 * 10000

    def test_sticky_chain_small_ess(self):
        rng = np.random.default_rng(2)
        n = 5000
        x = np.zeros((2, n))
        for c in range(2):
            for i in range(1, n):
                x[c, i] = 0.995 * x[c, i - 1] + rng.normal() * 0.1
        assert ess(x) < 1000

    def test_constant_chains(self):
        assert ess(np.ones((2, 50))) == 100.0

    @pytest.mark.parametrize("budget", [1, 17, 18, 19, 36, 37, 38])
    def test_chunks_match_one_pass(self, budget, monkeypatch):
        # a budget of ``budget`` parameters' draws, around the chunk
        # boundaries of 37 parameters; each chunk gets the same arithmetic
        rng = np.random.default_rng(5)
        draws = 0.9 * random_walk(rng, (2, 301, 37)) + rng.normal(size=(2, 301, 37))
        draws[..., 18] = 2.5  # a constant parameter
        one_pass = ess(draws)
        widths = []

        def recorded(x):
            widths.append(x.shape[0])
            return chunk_ess(x)

        chunk_ess = mcmc._ess
        monkeypatch.setattr(mcmc, "_ess", recorded)
        monkeypatch.setattr(mcmc, "ESS_CHUNK_BYTES", budget * 2 * 301 * 8)
        chunked = ess(draws)
        assert np.array_equal(chunked, one_pass)
        full, rest = divmod(37, budget)
        assert widths == [budget] * full + ([rest] if rest else [])

    def test_scratch_memory_does_not_grow_with_parameters(self):
        # 61 MiB of draws; one pass over every column needed about 4x that
        draws = np.random.default_rng(6).normal(size=(2, 5000, 800))
        tracemalloc.start()
        try:
            out = ess(draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (800,)
        assert peak <= 64 * 2**20


class TestSummarize:
    @staticmethod
    def sample_from(draws):
        draws = np.asarray(draws, dtype=float)
        return PosteriorSample(
            names=tuple(f"p{i}" for i in range(draws.shape[-1])),
            draws=draws,
            acceptance={},
            scales_after_burnin={},
        )

    def test_median_interpolation(self):
        sample = self.sample_from(np.array([[[1.0], [2.0]], [[3.0], [4.0]]]))
        out = summarize(sample, level=0.5)
        assert out["p0"]["median"] == pytest.approx(2.5)

    def test_normal_interval(self):
        rng = np.random.default_rng(8)
        draws = rng.normal(size=(2, 20000, 1))
        out = summarize(self.sample_from(draws), level=0.95)
        assert out["p0"]["lower"] == pytest.approx(-1.96, abs=0.05)
        assert out["p0"]["upper"] == pytest.approx(1.96, abs=0.05)

    def test_constant_draws_zero_width(self):
        sample = self.sample_from(np.full((2, 200, 1), 3.3))
        out = summarize(sample)
        assert out["p0"]["lower"] == out["p0"]["upper"] == pytest.approx(3.3)
