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
    rng_stream,
    run_chains,
    summarize,
)


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


def run_from(logpost, x0, blocks, config):
    """``run_chains`` with every chain started at ``x0`` and ``logpost`` as
    every block's partial."""
    inits = np.tile(np.asarray(x0, dtype=float), (config.n_chains, 1))
    return run_chains(logpost, inits, blocks, config, partials=[logpost] * len(blocks))


def _copying_reference(logpost, x0, blocks, config, chain_index):
    """The sampler's sweep with a copied state per proposal: kept draws and
    each block's accepted proposals after burn-in, of one chain."""
    rng = rng_stream(config.seed, chain_index)
    x = np.array(x0, dtype=float)
    scales = np.array([b.scale for b in blocks])
    accepted_after = [0] * len(blocks)
    kept = []
    for it in range(config.burn_in + config.keep):
        for bi, block in enumerate(blocks):
            idx = np.asarray(block.dims)
            cur = x[idx]
            factor = block.factor
            z = rng.standard_normal(idx.size if factor is None else factor.shape[1])
            step = scales[bi] * (z if factor is None else factor @ z)
            x_prop = x.copy()
            x_prop[idx] = cur + step
            accepted = math.log(rng.random()) < logpost(x_prop) - logpost(x)
            if accepted:
                x = x_prop
                accepted_after[bi] += it >= config.burn_in
            if it < config.burn_in:
                target = TARGET_RATE_SCALAR if idx.size == 1 else TARGET_RATE_BLOCK
                scales[bi] *= math.exp((10.0 + it) ** -0.6 * (float(accepted) - target))
        if it >= config.burn_in:
            kept.append(x)
    return np.array(kept), accepted_after


def assert_copying_reference_chains(logpost, x0, blocks, config, sample):
    """Assert that every chain of ``sample`` is the copying reference's, and
    that its acceptance rates are the reference's, averaged over the chains
    as ``run_chains`` averages them."""
    rates = np.zeros(len(blocks))
    for c in range(config.n_chains):
        kept, accepted = _copying_reference(logpost, x0, blocks, config, c)
        assert np.array_equal(sample.draws[c], kept)
        rates += np.array(accepted) / config.keep / config.n_chains
    assert sample.acceptance == {b.name: float(rates[bi]) for bi, b in enumerate(blocks)}


class TestRngStream:
    def test_same_seed_stream_reproduces(self):
        a = rng_stream(42, 3).normal(size=10)
        b = rng_stream(42, 3).normal(size=10)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = rng_stream(42, 0).normal(size=10)
        b = rng_stream(42, 1).normal(size=10)
        assert not np.array_equal(a, b)


class TestRunChains:
    def test_standard_normal_moments(self):
        config = McmcConfig(n_chains=2, burn_in=1000, keep=5000, seed=7)
        sample = run_from(
            std_normal_logpost,
            np.array([1.5]),
            [Block("x", (0,), scale=0.5)],
            config,
        )
        pooled = sample.pooled()[:, 0]
        assert abs(pooled.mean()) < 0.08
        assert 0.9 < pooled.var() < 1.1

    def test_vague_prior_with_uniform_sigma(self):
        # d ~ N(0, 1000 I) on 5 dims, sigma ~ Unif(0, 2): no data at all; the
        # chain moves u = log sigma, whose density carries the Jacobian e^u
        def logpost(x):
            u = x[5]
            if not u < math.log(2.0):
                return -np.inf
            return float(-np.sum(x[:5] ** 2) / 2000.0 + u)

        config = McmcConfig(n_chains=2, burn_in=2000, keep=8000, seed=11)
        blocks = [
            Block("d", tuple(range(5)), scale=20.0),
            Block("sigma", (5,), scale=0.5),
        ]
        sample = run_from(logpost, np.zeros(6), blocks, config)
        sigma_draws = np.exp(sample.pooled()[:, 5])
        assert sigma_draws.mean() == pytest.approx(1.0, abs=0.05)
        quartiles = np.quantile(sigma_draws, [0.25, 0.5, 0.75])
        assert quartiles == pytest.approx([0.5, 1.0, 1.5], abs=0.08)
        assert sigma_draws.max() < 2.0
        d_draws = sample.pooled()[:, 0]
        assert abs(d_draws.mean()) < 0.25 * np.sqrt(1000)

    def test_symmetric_bimodal_mean_zero(self):
        def logpost(x):
            a = -0.5 * ((x[0] - 0.5) / 0.2) ** 2
            b = -0.5 * ((x[0] + 0.5) / 0.2) ** 2
            return float(np.logaddexp(a, b))

        sample = run_from(
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
            inits=np.array([[0.2], [-0.3]]),
            blocks=[Block("x", (0,), scale=0.4)],
            config=config,
            partials=[std_normal_logpost],
        )
        a = run_chains(**kwargs)
        b = run_chains(**kwargs)
        assert np.array_equal(a.draws, b.draws)

    def test_adaptation_frozen_after_burnin(self):
        # the kept draws and acceptance rates are those of a chain whose
        # scales stay fixed after burn-in
        blocks = [Block("x", (0,), scale=2.0)]
        config = quick_config(keep=4000)
        sample = run_from(std_normal_logpost, np.array([0.0]), blocks, config)
        assert_copying_reference_chains(std_normal_logpost, [0.0], blocks, config, sample)

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
        inits = np.zeros((config.n_chains, 2))
        with_partials = run_chains(full, inits, blocks, config, partials=[p0, p1])
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
        sample = run_from(
            logpost,
            np.zeros(2),
            [Block("xy", (0, 1), scale=1.0, factor=chol)],
            McmcConfig(n_chains=2, burn_in=1500, keep=6000, seed=5),
        )
        pooled = sample.pooled()
        corr = np.corrcoef(pooled.T)[0, 1]
        assert corr == pytest.approx(0.95, abs=0.05)

    def test_nan_logpost_raises(self):
        def bad(x):
            return float("nan") if x[0] > 0.5 else 0.0

        with pytest.raises(McmcError):
            run_from(
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
            run_from(
                spike,
                init,
                [Block("x", (0,), scale=1.0)],
                quick_config(burn_in=2000),
            )

    @pytest.mark.parametrize("accept_at", [None, 249, 250, 517])
    def test_scale_collapse_after_exactly_the_collapse_windows(self, accept_at):
        # a partial that rejects every proposal, except the one of sweep
        # ``accept_at``: the sampler raises at the end of the COLLAPSE_WINDOWS-th
        # adaptation window without an acceptance, counted from the start or
        # from the window after the acceptance
        calls = []

        def partial(x):
            # two calls per sweep: the current state, then the proposal
            calls.append(None)
            sweep, proposal = divmod(len(calls) - 1, 2)
            return -math.inf if proposal and sweep != accept_at else 0.0

        window, windows = mcmc.ADAPTATION_WINDOW, mcmc.COLLAPSE_WINDOWS
        first = 0 if accept_at is None else accept_at // window + 1
        config = McmcConfig(n_chains=2, burn_in=(first + windows + 5) * window, keep=4)
        with pytest.raises(McmcError, match="'x'.*collapse"):
            run_chains(lambda x: 0.0, np.zeros((2, 1)), [Block("x", (0,), 1.0)], config,
                       partials=[partial])
        assert len(calls) == 2 * (first + windows) * window

    def test_blocks_must_partition(self):
        # each case: inits, blocks, partials and the error it must raise; the
        # last three break the shapes of inits and partials instead: a
        # single start shared by the chains is refused too
        two = [Block("x", (0,), 0.5), Block("y", (1,), 0.5)]
        full = [std_normal_logpost] * 3
        inits = np.zeros((2, 2))
        # a tall factor may overlap the partition, a square one may not
        tall = Block("s", (0, 1), 0.5, factor=np.ones((2, 1)))
        config = quick_config(burn_in=20, keep=20)
        run_chains(std_normal_logpost, inits, two + [tall], config, partials=full)
        square = Block("s", (0, 1), 0.5, factor=np.eye(2))
        # a tall factor's dims too must be distinct coordinates of x, here
        # a 3-vector: -1, 7 and a repeated 0 are not
        three = [Block(name, (d,), 0.5) for d, name in enumerate("xyz")]
        shifts = [
            Block("s", dims, 0.5, factor=np.ones((2, 1))) for dims in ((0, -1), (0, 7), (0, 0))
        ]
        cases = [
            (inits, [Block("x", (0,), 0.5)], full[:1], "partition"),
            (inits, [Block("x", (0, 1), 0.5), Block("y", (1,), 0.5)], full[:2], "two blocks"),
            (inits, two + [square], full, "two blocks"),
            (inits, [tall], full[:1], "partition"),
            (inits, two + [Block("s", (0, 1), 0.5, factor=np.ones((1, 1)))], full, "one row"),
            (inits, two + [Block("s", (0, 1), 0.5, factor=np.ones((3, 1)))], full, "one row"),
            (inits, two + [Block("s", (0, 1), 0.5, factor=np.ones(2))], full, "one row"),
            *((np.zeros((2, 3)), three + [s], full + full[:1], "distinct") for s in shifts),
            (np.zeros((3, 2)), two, full[:2], "init per chain"),
            (np.zeros(2), two, full[:2], "init per chain"),
            (inits, two, full[:1], "partial"),
        ]
        for init, blocks, partials, match in cases:
            with pytest.raises(McmcError, match=match):
                run_chains(std_normal_logpost, init, blocks, quick_config(), partials=partials)

    @pytest.mark.parametrize("scale", [0.0, -0.5, math.nan, math.inf])
    def test_block_scale_must_be_finite_and_positive(self, scale):
        # a block of scale 0 never moves, yet would read as converged
        with pytest.raises(McmcError, match="scale must be finite and > 0"):
            Block("x", (0,), scale=scale)

    def test_infinite_init_rejected(self):
        def logpost(x):
            return -np.inf

        with pytest.raises(McmcError):
            run_from(logpost, np.zeros(1), [Block("x", (0,), 0.5)], quick_config())

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

    @pytest.mark.parametrize("field", ["n_chains", "burn_in", "keep", "seed"])
    def test_config_is_frozen(self, field):
        # the checks run at construction, so a later assignment could skip them
        config = McmcConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, 0)

    def test_non_finite_draws_raise(self):
        # a flat target accepts every step, and a huge scale overflows
        with pytest.raises(McmcError, match="non-finite draws"):
            run_from(
                lambda x: 0.0, np.zeros(1), [Block("x", (0,), scale=1e308)], quick_config()
            )

    def test_uniform_of_zero_accepts_finite_and_rejects_impossible_proposals(
        self, monkeypatch
    ):
        # Generator.random() draws from [0, 1), so 0.0 can come up; log 0 is
        # -inf, so that uniform accepts every proposal with a finite log
        # posterior and rejects every one outside the support
        class ZeroUniform:
            def __init__(self, rng):
                self.standard_normal = rng.standard_normal

            def random(self):
                return 0.0

        stream = mcmc.rng_stream
        monkeypatch.setattr(mcmc, "rng_stream", lambda *key: ZeroUniform(stream(*key)))
        seen = []

        def logpost(x):
            seen.append(x.item(0))
            return 0.0 if abs(x.item(0)) < 1.0 else -math.inf

        config = quick_config(burn_in=50, keep=200)
        sample = run_from(logpost, np.zeros(1), [Block("x", (0,), 0.5)], config)
        # each chain's first call is its start's, then an (old, new) pair per proposal
        calls = 1 + 2 * (config.burn_in + config.keep)
        finite = 0
        for c in range(config.n_chains):
            chain = seen[c * calls + 1 : (c + 1) * calls]
            olds, news = chain[0::2], chain[1::2]
            for i in range(len(news) - 1):
                inside = abs(news[i]) < 1.0
                assert olds[i + 1] == (news[i] if inside else olds[i])
                finite += inside and i >= config.burn_in
            finite += abs(news[-1]) < 1.0
        assert 0.0 < sample.acceptance["x"] < 1.0
        assert sample.acceptance["x"] == pytest.approx(finite / (config.n_chains * config.keep))
        assert np.all(np.abs(sample.draws) < 1.0)

    def test_rejected_proposals_restore_every_coordinate(self):
        # every block kind: scalar, contiguous with covariance shaping, and a
        # tall factor over non-contiguous coordinates; any move is rejected,
        # so every evaluation must see the start bit for bit
        x0 = np.array([0.1, -0.7, 1.3, 0.4, 2.5, -1.9])
        seen = []

        def only_start(x):
            seen.append(np.array_equal(x, x0))
            return 0.0 if seen[-1] else -np.inf

        blocks = [
            Block("a", (0,), 0.5),
            Block("bc", (1, 2), 0.5, factor=np.array([[1.0, 0.0], [0.3, 0.9]])),
            Block("d", (3,), 0.5),
            Block("e", (4,), 0.5),
            Block("f", (5,), 0.5),
            Block("shift", (0, 3, 5), 0.5, factor=np.array([[1.0], [-1.0], [0.5]])),
        ]
        config = quick_config(burn_in=30, keep=20)
        sample = run_from(only_start, x0, blocks, config)
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
            Block("bc", (1, 2), 0.6, factor=np.array([[1.0, 0.0], [0.4, 0.8]])),
            Block("d", (3,), 0.7),
            Block("s", (4,), 0.4),
            Block("shift", (0, 3, 1), 0.3, factor=np.array([[1.0], [-0.5], [-1.0]])),
        ]
        config = quick_config(burn_in=200, keep=200)
        x0 = np.array([0.3, -0.2, 0.1, 0.5, 1.2])
        sample = run_from(logpost, x0, blocks, config)
        assert_copying_reference_chains(logpost, x0, blocks, config, sample)

    def test_per_chain_inits(self):
        inits = np.array([[5.0], [-5.0]])
        sample = run_chains(
            std_normal_logpost,
            inits,
            [Block("x", (0,), 0.5)],
            McmcConfig(n_chains=2, burn_in=2000, keep=3000, seed=9),
            partials=[std_normal_logpost],
        )
        assert sample.rhat[0] < 1.05


class TestRhat:
    def test_identical_long_chains(self):
        rng = np.random.default_rng(0)
        chains = rng.normal(size=(2, 10000, 1))
        assert rhat(chains)[0] < 1.01

    def test_constant_distinct_chains(self):
        chains = np.vstack([np.zeros(100), np.ones(100)])[..., None]
        assert rhat(chains)[0] > 1.1

    def test_identical_constant_chains(self):
        assert rhat(np.zeros((2, 100, 1)))[0] == 1.0

    def test_single_chain_rejected(self):
        with pytest.raises(McmcError):
            rhat(np.zeros((1, 100, 1)))

    def test_split_detects_drift(self):
        # one chain drifting, one stationary: split-chain flags it
        drifting = np.linspace(0, 5, 1000)
        flat = np.zeros(1000)
        assert rhat(np.vstack([drifting, flat])[..., None])[0] > 1.1


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
            assert batch_rhat[j] == rhat(draws[:, :, j : j + 1])[0]
            assert batch_ess[j] == ess(draws[:, :, j : j + 1])[0]
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
            # one parameter's (chains, draws) too: the parameter axis is required
            with pytest.raises(McmcError):
                fn(np.zeros((2, 10)))
            with pytest.raises(McmcError):
                fn(np.zeros((2, 10, 1, 1)))
        with pytest.raises(McmcError):
            rhat(np.zeros((1, 10, 3)))

    def test_no_parameters(self):
        draws = np.zeros((2, 301, 0))
        assert rhat(draws).shape == ess(draws).shape == (0,)
        assert summarize(TestSummarize.sample_from(draws)) == {}

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
        chains = rng.normal(size=(2, 5000, 1))
        assert ess(chains)[0] > 0.5 * 10000

    def test_sticky_chain_small_ess(self):
        rng = np.random.default_rng(2)
        n = 5000
        x = np.zeros((2, n))
        for c in range(2):
            for i in range(1, n):
                x[c, i] = 0.995 * x[c, i - 1] + rng.normal() * 0.1
        assert ess(x[..., None])[0] < 1000

    def test_constant_chains(self):
        assert ess(np.ones((2, 50, 1)))[0] == 100.0

    @pytest.mark.parametrize("budget", [1, 17, 18, 19, 36, 37, 38])
    def test_chunks_match_one_pass(self, budget, monkeypatch):
        # a budget of ``budget`` parameters' draws, around the chunk
        # boundaries of 37 parameters; R-hat, ESS and the summary each give
        # every chunk the arithmetic of one pass
        rng = np.random.default_rng(5)
        draws = 0.9 * random_walk(rng, (2, 301, 37)) + rng.normal(size=(2, 301, 37))
        draws[..., 18] = 2.5  # a constant parameter
        sample = TestSummarize.sample_from(draws)
        statistics = {
            "rhat": lambda d: rhat(d).tolist(),
            "ess": lambda d: ess(d).tolist(),
            "summarize": lambda d: summarize(sample),
        }
        widths = []
        chunks = mcmc._chunks

        def recorded(columns):
            for x in chunks(columns):
                widths.append(x.shape[0])
                yield x

        monkeypatch.setattr(mcmc, "_chunks", recorded)
        one_pass = {name: f(draws) for name, f in statistics.items()}
        assert widths == [37] * 3
        monkeypatch.setattr(mcmc, "CHUNK_BYTES", budget * 2 * 301 * 8)
        full, rest = divmod(37, budget)
        for name, f in statistics.items():
            widths.clear()
            chunked = f(draws)
            assert widths == [budget] * full + ([rest] if rest else []), name
            assert chunked == one_pass[name], name

    def test_scratch_memory_does_not_grow_with_parameters(self):
        # 61 MiB of draws; one pass over every column needed 1.5 to 4 times that
        draws = np.random.default_rng(6).normal(size=(2, 5000, 800))
        sample = TestSummarize.sample_from(draws)
        for statistic in (rhat, ess, lambda d: summarize(sample)):
            tracemalloc.start()
            try:
                out = statistic(draws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(out) == 800
            assert peak <= 64 * 2**20


class TestSummarize:
    @staticmethod
    def sample_from(draws):
        draws = np.asarray(draws, dtype=float)
        return PosteriorSample(
            names=tuple(f"p{i}" for i in range(draws.shape[-1])),
            draws=draws,
            acceptance={},
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

    def test_match_per_column_reference(self):
        # each entry is numpy's own statistic of the parameter's pooled draws
        rng = np.random.default_rng(9)
        draws = rng.normal(size=(2, 50, 300)) * rng.uniform(0.01, 100, size=300)
        out = summarize(self.sample_from(draws), level=0.9)
        pooled, tail = draws.reshape(100, 300), (1.0 - 0.9) / 2.0
        for j, col in enumerate(pooled.T):
            assert out[f"p{j}"] == {
                "mean": col.mean(),
                "median": np.median(col),
                "lower": np.quantile(col, tail),
                "upper": np.quantile(col, 1.0 - tail),
            }

    def test_interval_interpolates_linearly(self):
        # type-7 positions on the pooled draws {1..1000}: 1 + 999 p
        sample = self.sample_from(np.arange(1.0, 1001.0).reshape(2, 500, 1))
        out = summarize(sample, level=0.95)["p0"]
        assert (out["lower"], out["upper"]) == pytest.approx((25.975, 975.025), abs=1e-9)
        assert out["median"] == out["mean"] == 500.5

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -1.0, np.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(McmcError, match="level"):
            summarize(self.sample_from(np.zeros((2, 10, 1))), level)

    @pytest.mark.parametrize("shape", [(2, 0, 3), (0, 10, 3)])
    def test_empty_draws_rejected(self, shape):
        with pytest.raises(McmcError, match="draw"):
            summarize(self.sample_from(np.zeros(shape)))
