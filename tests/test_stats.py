"""Monte Carlo averaging, total variation distance, and variance scans."""

from __future__ import annotations

import itertools
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dqwalk.stats
from conftest import _draw_haar, distribution_of, kernel_rows, make_haar_mixture
from dqwalk import (
    CASE_I_DEFAULT,
    HADAMARD,
    AveragedWalker,
    ClassicalWalker,
    Coin,
    CoinEnsemble,
    DeterministicWalker,
    Distribution,
    InitialStateRule,
    NumericalDriftError,
    QubitState,
    audit_moments,
    binomial_distribution,
    evolve,
    exact_average,
    make_fixed,
    make_initial_state,
    make_mackay,
    make_ribeiro_two_point,
    make_ribeiro_uniform,
    make_shapira,
    monte_carlo_average,
    run_realization,
    summary_stats,
    tv_distance,
    variance_scan,
)
from dqwalk.engine import _check_block_norms, _evolve_block
from dqwalk.ensembles import UniformDraw, _phase_parameters, _support_arrays
from dqwalk.stats import BLOCK_SIZE, RUN_SITES, _block_draws, _mc_block
from dqwalk.streams import COIN_STREAM, INIT_STREAM, block_uniforms, substream


class TestMonteCarloAverage:
    def test_single_trial_fixed_coin_equals_one_run(self):
        init = make_initial_state("caseI")
        result = monte_carlo_average(make_fixed(), init, 8, trials=1, master_seed=3)
        single = run_realization(make_fixed(), init, 8, 3, trial=0)
        assert np.array_equal(result.mean_distribution.probs, single.probs)
        assert result.stderr_max == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_average(make_fixed(), make_initial_state("caseI"), 4, 0, 0)

    def test_deterministic_in_all_arguments(self):
        ensemble = make_ribeiro_uniform()
        init = make_initial_state("caseI")
        a = monte_carlo_average(ensemble, init, 6, 500, 11)
        b = monte_carlo_average(ensemble, init, 6, 500, 11)
        assert np.array_equal(a.mean_distribution.probs, b.mean_distribution.probs)
        assert a.digest == b.digest

    def test_worker_count_invariance(self):
        ensemble = make_ribeiro_uniform()
        init = make_initial_state("caseII")
        # Three runs of eight blocks at n=7, so the pool really runs them.
        serial = monte_carlo_average(ensemble, init, 7, 20000, 11, workers=1)
        parallel = monte_carlo_average(ensemble, init, 7, 20000, 11, workers=3)
        assert np.array_equal(serial.mean_distribution.probs, parallel.mean_distribution.probs)
        assert np.array_equal(serial.stderr, parallel.stderr)

    def test_stderr_shrinks_like_inverse_sqrt_trials(self):
        ensemble = make_ribeiro_uniform()
        init = make_initial_state("caseI")
        small = monte_carlo_average(ensemble, init, 8, 2000, 21)
        large = monte_carlo_average(ensemble, init, 8, 8000, 21)
        ratio = small.stderr_max / large.stderr_max
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5

    @pytest.mark.parametrize("init, n", [("caseI", 12), ("0.6,0.8j", 10)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stderr_matches_the_population_of_all_sequences(self, init, n, seed):
        # The 2^n equally weighted coin sequences of a two-point ensemble are
        # the whole population of a trial's site probabilities.  Their mean
        # mu, variance sigma^2 and fourth central moment mu4 give the mean's
        # z-score against sigma^2 / T and the sample variance's against
        # (mu4 - sigma^4) / T.
        ensemble = make_ribeiro_two_point(0.3)
        rows, _ = _support_arrays(ensemble.finite_support)
        phi = make_initial_state(init).state
        abcd = rows[np.array(list(itertools.product(range(2), repeat=n)))]
        probs = _evolve_block(abcd, np.tile([phi.alpha, phi.beta], (len(abcd), 1)))
        mu = probs.mean(axis=0)
        var = ((probs - mu) ** 2).mean(axis=0)
        mu4 = ((probs - mu) ** 4).mean(axis=0)
        trials = 20000
        result = monte_carlo_average(ensemble, make_initial_state(init), n, trials, seed)
        z_mean = (result.mean_distribution.probs - mu) / np.sqrt(var / trials)
        z_var = (result.stderr**2 * trials - var) / np.sqrt((mu4 - var**2) / trials)
        assert np.max(np.abs(z_mean)) <= 5
        assert np.max(np.abs(z_var)) <= 5

    def test_mean_has_zero_mass_off_parity(self):
        result = monte_carlo_average(
            make_ribeiro_uniform(), make_initial_state("caseI"), 9, 200, 4
        )
        dist = result.mean_distribution
        assert all((9 + k) % 2 == 0 for k in dist.sites())
        assert dist.prob(0) == 0.0

    def test_json_export_schema(self):
        result = monte_carlo_average(
            make_ribeiro_uniform(), make_initial_state("caseI"), 4, 64, 2
        )
        payload = result.to_json_dict()
        assert set(payload) == {
            "n", "trials", "seed", "mean", "stderr_max", "tv_to_binomial", "config_digest",
        }
        assert payload["n"] == 4 and payload["trials"] == 64 and payload["seed"] == 2


def _nan_coins(rng: np.random.Generator, size: int) -> np.ndarray:
    return np.full((size, 4), complex(np.nan, 0.0))


class TestNonFiniteCoins:
    # A NaN total is a drift beyond any budget: block runs must fail like
    # `step` does, not later in the Distribution constructor.
    ensemble = CoinEnsemble(name="nan", draw_parameters=_nan_coins)

    def test_run_realization_raises_drift(self):
        with pytest.raises(NumericalDriftError):
            run_realization(self.ensemble, make_initial_state("caseI"), 3, master_seed=0)

    def test_monte_carlo_average_raises_drift(self):
        with pytest.raises(NumericalDriftError):
            monte_carlo_average(self.ensemble, make_initial_state("caseI"), 3, 16, master_seed=0)


def _haar_states(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar-random initial states: the first columns of Haar coins."""
    return _draw_haar(rng, size)[:, [0, 2]]


class TestRecordedInitialRule:
    def test_custom_random_rule_digest_differs_from_case_ii(self):
        haar = InitialStateRule(draw_parameters=_haar_states)
        case_ii = make_initial_state("caseII")
        a = monte_carlo_average(make_fixed(), haar, 6, 500, 1)
        b = monte_carlo_average(make_fixed(), case_ii, 6, 500, 1)
        assert not np.array_equal(a.mean_distribution.probs, b.mean_distribution.probs)
        assert a.digest != b.digest


class TestSupportOnlyEnsembles:
    """An ensemble given by its finite support alone runs through every route."""

    def test_every_route(self, pool_sizes):
        ensemble = make_haar_mixture(5, (0.5, 0.3, 0.2))
        init = make_initial_state((0.6, 0.8j))
        single = run_realization(ensemble, init, 12, 3, trial=0)
        first = monte_carlo_average(ensemble, init, 12, 1, 3)
        assert np.array_equal(single.probs, first.mean_distribution.probs)
        # At n = 12 a run is 4 blocks, so 5000 trials are two runs.
        serial = monte_carlo_average(ensemble, init, 12, 5000, 3)
        parallel = monte_carlo_average(ensemble, init, 12, 5000, 3, workers=2)
        assert pool_sizes == [2]
        for got, want in ((parallel.mean_distribution.probs, serial.mean_distribution.probs),
                          (parallel.stderr, serial.stderr)):
            assert got.tobytes() == want.tobytes()
        assert audit_moments(ensemble, 1).exact
        exact = exact_average(ensemble, init, 12)
        assert np.all(np.abs(serial.mean_distribution.probs - exact.probs) <= 5 * serial.stderr)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        raw=st.lists(st.floats(0.1, 0.9), min_size=2, max_size=3),
        init=st.sampled_from(["caseI", "1,0", "0.6,0.8j"]),
    )
    @example(seed=11, raw=[0.5, 0.3, 0.2], init="0.6,0.8j")
    def test_monte_carlo_agrees_with_exact_average(self, seed, raw, init):
        # Monte Carlo through the draws derived from the support against the
        # exact average over that support, within 5 standard errors per site.
        weights = (np.array(raw) / sum(raw)).tolist()
        ensemble, rule = make_haar_mixture(seed, weights), make_initial_state(init)
        exact = exact_average(ensemble, rule, 8)
        estimate = monte_carlo_average(ensemble, rule, 8, 20_000, seed)
        assert np.all(estimate.stderr > 0)
        deviation = np.abs(estimate.mean_distribution.probs - exact.probs)
        assert np.all(deviation <= 5 * estimate.stderr)


UNIFORM_CATALOG = [
    make_ribeiro_uniform,
    lambda: make_ribeiro_two_point(0.3),
    make_mackay,
]


def as_custom_ensemble(ensemble: CoinEnsemble) -> CoinEnsemble:
    """The same draws behind a plain callable, which takes the per-trial path."""
    return CoinEnsemble(
        name=ensemble.name, draw_parameters=partial(ensemble.draw_parameters),
        params=ensemble.params,
    )


def as_custom_rule(rule: InitialStateRule) -> InitialStateRule:
    """The same draws behind a plain callable, recorded as ``custom_random``."""
    if rule.state is not None:
        return rule
    return InitialStateRule(draw_parameters=partial(rule.draw_parameters))


def _phase_coins_on_unit_interval(rng: np.random.Generator, size: int) -> np.ndarray:
    """Phase coins with the phase uniform on [-1, 1): a per-trial phase law."""
    return _phase_parameters(rng.uniform(-1.0, 1.0, size))


def mackay_planes(rng: np.random.Generator, size: int) -> np.ndarray:
    """Mackay coins as (4, size) planes, not rows, from a plain callable."""
    return make_mackay().draw_parameters(rng, size).T


def two_coin_mixture() -> CoinEnsemble:
    return make_haar_mixture(4, (0.25, 0.75))


class TestBlockStreams:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("init", ["caseI", "caseII"])
    @pytest.mark.parametrize("factory", UNIFORM_CATALOG)
    def test_block_path_equals_per_trial_path(self, factory, init, workers, pool_sizes):
        # From n = 63 on a run is one block, so 1500 trials are two runs
        # and two workers reach the process pool.
        ensemble, rule = factory(), make_initial_state(init)
        block = monte_carlo_average(ensemble, rule, 63, 1500, 2**64 - 1, workers=workers)
        per_trial = monte_carlo_average(
            as_custom_ensemble(ensemble), as_custom_rule(rule), 63, 1500, 2**64 - 1,
            workers=workers,
        )
        assert pool_sizes == ([] if workers == 1 else [2, 2])
        assert np.array_equal(block.mean_distribution.probs, per_trial.mean_distribution.probs)
        assert np.array_equal(block.stderr, per_trial.stderr)
        # A copy of caseII's draw records "custom_random", so its digest
        # differs from caseII's; every other key is the same.
        block_doc, per_trial_doc = block.to_json_dict(), per_trial.to_json_dict()
        digests = block_doc.pop("config_digest"), per_trial_doc.pop("config_digest")
        assert block_doc == per_trial_doc
        if init == "caseII":
            assert digests[0] != digests[1]
        else:
            assert digests[0] == digests[1]

    @pytest.mark.parametrize("factory", UNIFORM_CATALOG + [make_fixed, two_coin_mixture])
    def test_uniform_ensembles_build_no_per_trial_generator(self, factory, monkeypatch):
        def forbidden(*args):
            raise AssertionError("per-trial stream built on the block path")

        monkeypatch.setattr(dqwalk.stats, "substream", forbidden)
        monte_carlo_average(factory(), make_initial_state("caseII"), 4, 50, 3)


def eager_block_draws(draw, sample, master_seed, start, count, stream, size, width):
    """A whole block's (count, size, width) draws in one array: the reference
    that draws made per slice must equal."""
    if isinstance(draw, UniformDraw):
        u = block_uniforms(master_seed, start, count, stream, size)
        return draw.transform(u.reshape(-1)).reshape(count, size, width)
    out = np.empty((count, size, width), dtype=np.complex128)
    for i in range(count):
        out[i] = sample(substream(master_seed, start + i, stream), size)
    return out


def eager_mc_block(ensemble, init_rule, n, master_seed, start, count):
    """`_mc_block` over a whole-block coin array, the reference for its bits."""
    abcd = eager_block_draws(
        ensemble.draw_parameters, ensemble.sample_batch,
        master_seed, start, count, COIN_STREAM, n, 4,
    )
    if init_rule.state is None:
        initial = eager_block_draws(
            init_rule.draw_parameters, init_rule.draw_batch,
            master_seed, start, count, INIT_STREAM, 1, 2,
        )[:, 0]
    else:
        initial = init_rule.draw_batch(None, count)
    probs = _evolve_block(abcd, initial)
    _check_block_norms(probs, n)
    return probs.sum(axis=0), (probs**2).sum(axis=0)


def coin_source(ensemble: CoinEnsemble):
    return ensemble.draw_parameters, ensemble.sample_batch, COIN_STREAM, 4


def state_source(rule: InitialStateRule):
    return rule.draw_parameters, rule.draw_batch, INIT_STREAM, 2


UNIFORM_SOURCES = [
    coin_source(make_ribeiro_uniform()),
    coin_source(make_ribeiro_two_point(0.3)),
    coin_source(make_mackay()),
    coin_source(make_haar_mixture(6, (0.2, 0.3, 0.5))),
    state_source(make_initial_state("caseII")),
]

PER_TRIAL_SOURCES = [
    coin_source(make_shapira(0.5)),
    coin_source(make_fixed()),
    coin_source(CoinEnsemble(name="phase_unit", draw_parameters=_phase_coins_on_unit_interval)),
    coin_source(as_custom_ensemble(make_ribeiro_uniform())),
    state_source(as_custom_rule(make_initial_state("caseII"))),
]


class TestSubBlockDraws:
    """Block draws made per kernel sub-block equal the whole-block draws."""

    @staticmethod
    def check_sub_block_rows(source, n, offset, master_seed, start):
        draw, sample, stream, width = source
        count = kernel_rows(n, 2**62) + offset
        draws = _block_draws(draw, master_seed, start, count, stream, n, width)
        eager = eager_block_draws(draw, sample, master_seed, start, count, stream, n, width)
        assert draws.shape == eager.shape
        assert draws[0:count].dtype == eager.dtype
        rows = kernel_rows(n, count)
        pieces = [draws[lo : lo + rows] for lo in range(0, count, rows)]
        assert len(pieces) == (2 if offset == 1 else 1)
        assert np.concatenate(pieces).tobytes() == eager.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(UNIFORM_SOURCES),
        n=st.integers(0, 600),
        offset=st.sampled_from([-1, 0, 1]),
        master_seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**40),
    )
    def test_uniform_draws(self, source, n, offset, master_seed, start):
        self.check_sub_block_rows(source, n, offset, master_seed, start)

    @settings(max_examples=10, deadline=None)
    @given(
        source=st.sampled_from(PER_TRIAL_SOURCES),
        n=st.integers(0, 600),
        offset=st.sampled_from([-1, 0, 1]),
        master_seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**40),
    )
    def test_per_trial_draws(self, source, n, offset, master_seed, start):
        self.check_sub_block_rows(source, n, offset, master_seed, start)

    @pytest.mark.parametrize("n, count", [(0, 3), (10, 1489), (320, 130)])
    def test_row_major_transform_gives_the_same_rows(self, n, count):
        # The catalog's transforms return column-major rows, which are read
        # as planes in place; the same rows in row-major memory are copied.
        column_major = make_mackay().draw_parameters
        row_major = UniformDraw(lambda u: np.ascontiguousarray(column_major.transform(u)))
        assert column_major.transform(np.zeros(3)).flags.f_contiguous
        assert row_major.transform(np.zeros(3)).flags.c_contiguous
        rows = kernel_rows(n, count)

        def block(draw):
            return _block_draws(draw, 9, 5, count, COIN_STREAM, n, 4)

        for lo in range(0, count, rows):
            got, want = block(column_major)[lo : lo + rows], block(row_major)[lo : lo + rows]
            assert got.shape == want.shape == (min(rows, count - lo), n, 4)
            assert got.tobytes() == want.tobytes()
        initial = make_initial_state("caseI").draw_batch(None, count)
        probs = [_evolve_block(block(draw), initial) for draw in (column_major, row_major)]
        assert probs[0].tobytes() == probs[1].tobytes()

    @pytest.mark.parametrize("route", ["average", "run", "audit"])
    def test_transform_of_the_wrong_shape_is_rejected(self, route, pool_sizes):
        # (4, N) planes hold as many entries as the (N, 4) rows, so only
        # their shape tells them apart; every route reads them as rows.  An
        # average draws a `UniformDraw`'s coins for its 10 trials at once,
        # and any other draw's one trial at a time, on one worker or two
        # (5121 trials at n = 10 are two runs).
        uniform_planes = CoinEnsemble(
            "planes", UniformDraw(lambda u: make_mackay().draw_parameters.transform(u).T)
        )
        planes = CoinEnsemble("planes", mackay_planes)
        ensembles, rule = (uniform_planes, planes), make_initial_state("caseI")
        calls = {
            "average": [
                (100, partial(monte_carlo_average, uniform_planes, rule, 10, 10, 3, workers=1)),
                (10, partial(monte_carlo_average, planes, rule, 10, 5121, 3, workers=1)),
                (10, partial(monte_carlo_average, planes, rule, 10, 5121, 3, workers=2)),
            ],
            "run": [(10, partial(run_realization, e, rule, 10, 3)) for e in ensembles],
            "audit": [(10, partial(audit_moments, e, 10, 3)) for e in ensembles],
        }
        for size, call in calls[route]:
            message = f"draw_parameters returned shape (4, {size}), expected ({size}, 4)"
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
        assert pool_sizes == ([2] if route == "average" else [])

    @pytest.mark.parametrize("route", ["average", "run"])
    @pytest.mark.parametrize("draw", ["uniform_planes", "planes", "flat"])
    def test_initial_state_draw_of_the_wrong_shape_is_rejected(self, draw, route):
        # (2, N) planes hold as many entries as (N, 2) rows, and N flat values
        # broadcast into a row's alpha and beta: only the shape tells them apart.
        case_ii = make_initial_state("caseII").draw_parameters
        rule = InitialStateRule(draw_parameters={
            "uniform_planes": UniformDraw(lambda u: case_ii.transform(u).T),
            "planes": lambda rng, size: case_ii(rng, size).T,
            "flat": lambda rng, size: case_ii(rng, size)[:, 0],
        }[draw])
        # An average draws a `UniformDraw`'s states for its 10 trials at
        # once, and any other draw's one trial at a time.
        size = 10 if (draw, route) == ("uniform_planes", "average") else 1
        shape = (size,) if draw == "flat" else (2, size)
        message = f"draw_parameters returned shape {shape}, expected ({size}, 2)"
        call = {
            "average": lambda: monte_carlo_average(make_fixed(), rule, 4, 10, 3, workers=1),
            "run": lambda: run_realization(make_fixed(), rule, 4, 3),
        }[route]
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("n, count", [(0, 3), (1, 9), (10, 1024), (320, 130)])
    @pytest.mark.parametrize("init", ["caseI", "caseII"])
    @pytest.mark.parametrize(
        "factory", UNIFORM_CATALOG + [lambda: make_shapira(0.5), make_fixed]
    )
    def test_mc_block_equals_eager_block(self, factory, init, n, count):
        ensemble, rule = factory(), make_initial_state(init)
        start = 3 * BLOCK_SIZE
        got = _mc_block(ensemble, rule, n, 2**64 - 1, start, count)
        want = eager_mc_block(ensemble, rule, n, 2**64 - 1, start, count)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_block_memory_stays_below_a_block_coin_array(self):
        # A whole block's coins alone take 21 MB at n=320 x 1024 trials
        # (34 MB peak with them); per sub-block they take about 1 MB.
        tracemalloc.start()
        try:
            _mc_block(make_ribeiro_uniform(), make_initial_state("caseI"), 320, 1, 0, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


class TestRuns:
    """A task's run of whole blocks gives each block's own partials."""

    @staticmethod
    def check_run_rows(ensemble, rule, n, start, count):
        sums, squares = _mc_block(ensemble, rule, n, 2**64 - 1, start, count)
        starts = range(start, start + count, BLOCK_SIZE)
        assert sums.shape == squares.shape == (len(starts), n + 1)
        for row, lo in enumerate(starts):
            size = min(BLOCK_SIZE, start + count - lo)
            want_sum, want_square = eager_mc_block(ensemble, rule, n, 2**64 - 1, lo, size)
            assert sums[row].tobytes() == want_sum.tobytes()
            assert squares[row].tobytes() == want_square.tobytes()

    @pytest.mark.parametrize("blocks, n", [(2, 10), (5, 3), (6, 0)])
    @pytest.mark.parametrize("init", ["caseI", "caseII"])
    @pytest.mark.parametrize("factory", [make_mackay, lambda: make_shapira(0.5)])
    def test_run_rows_equal_eager_blocks(self, factory, init, blocks, n):
        count = (blocks - 1) * BLOCK_SIZE + 300
        self.check_run_rows(factory(), make_initial_state(init), n, 5 * BLOCK_SIZE, count)

    @pytest.mark.parametrize("factory", [make_mackay, lambda: make_shapira(0.5)])
    def test_run_across_trial_2_to_the_32(self, factory):
        # Trial indices from 2**32 on hash as two 32-bit words.
        rule = make_initial_state("caseII")
        self.check_run_rows(factory(), rule, 4, 2**32 - 2 * BLOCK_SIZE, 3 * BLOCK_SIZE + 5)

    @pytest.mark.parametrize("trials", [5 * BLOCK_SIZE + 1, 11 * BLOCK_SIZE - 1])
    def test_average_invariant_to_run_length_and_workers(self, trials, monkeypatch):
        # At n=10 the default run is 5 blocks; RUN_SITES=1 gives one-block
        # runs and 2**62 a single run for the whole job.
        ensemble, rule = make_mackay(), make_initial_state("caseII")
        monkeypatch.setattr(dqwalk.stats, "RUN_SITES", 1)
        want = monte_carlo_average(ensemble, rule, 10, trials, 5, workers=1)
        for budget in (1, RUN_SITES, 2**62):
            monkeypatch.setattr(dqwalk.stats, "RUN_SITES", budget)
            for workers in (1, 2, 3):
                got = monte_carlo_average(ensemble, rule, 10, trials, 5, workers=workers)
                assert np.array_equal(got.mean_distribution.probs, want.mean_distribution.probs)
                assert np.array_equal(got.stderr, want.stderr)

    @pytest.mark.parametrize(
        "trials, workers, pool_size",
        [(10000, 6, 2), (40000, 2, 2), (40000, 16, 8), (5120, 4, None)],
    )
    def test_pool_forks_no_idle_workers(self, trials, workers, pool_size, pool_sizes):
        # n=10 runs hold 5120 trials: 10000 trials are 2 runs, 40000 are 8,
        # and 5120 one run, which needs no pool.
        ensemble, rule = make_mackay(), make_initial_state("caseII")
        pooled = monte_carlo_average(ensemble, rule, 10, trials, 1, workers=workers)
        serial = monte_carlo_average(ensemble, rule, 10, trials, 1, workers=1)
        assert pool_sizes == ([] if pool_size is None else [pool_size])
        assert np.array_equal(pooled.mean_distribution.probs, serial.mean_distribution.probs)
        assert np.array_equal(pooled.stderr, serial.stderr)


class TestMomentAudit:
    """An average's audit runs while its pool works, with the same bits."""

    @staticmethod
    def spy(monkeypatch, events):
        audit = dqwalk.stats.audit_moments
        block = dqwalk.stats._mc_block

        def spied_audit(*args):
            events.append("audit")
            return audit(*args)

        def spied_block(*args):
            events.append("run")
            return block(*args)

        monkeypatch.setattr(dqwalk.stats, "audit_moments", spied_audit)
        monkeypatch.setattr(dqwalk.stats, "_mc_block", spied_block)

    def test_pool_audits_between_its_entry_and_exit(self, monkeypatch, pool_sizes):
        events = []
        recording_pool = dqwalk.stats.ProcessPoolExecutor

        class EventPool(recording_pool):
            def __enter__(self):
                events.append("enter")
                return super().__enter__()

            def submit(self, fn, /, *args, **kwargs):
                events.append("submit")
                return super().submit(fn, *args, **kwargs)

            def map(self, *args, **kwargs):
                results = super().map(*args, **kwargs)

                def collected():
                    events.append("collect")
                    yield from results

                return collected()

            def __exit__(self, *exc):
                events.append("exit")
                return super().__exit__(*exc)

        monkeypatch.setattr(dqwalk.stats, "ProcessPoolExecutor", EventPool)
        self.spy(monkeypatch, events)
        ensemble, rule = make_mackay(), make_initial_state("caseII")
        # n=10 runs hold 5120 trials, so 10000 trials are two runs.
        result = monte_carlo_average(ensemble, rule, 10, 10000, 3, workers=2, audit_draws=5000)
        assert pool_sizes == [2]
        assert events == ["enter", "submit", "submit", "audit", "collect", "exit"]
        assert result.moment_audit == audit_moments(ensemble, 5000, 3)

    def test_serial_average_audits_after_its_runs(self, monkeypatch):
        events = []
        self.spy(monkeypatch, events)
        ensemble, rule = make_mackay(), make_initial_state("caseII")
        result = monte_carlo_average(ensemble, rule, 10, 10000, 3, workers=1, audit_draws=5000)
        assert events == ["run", "run", "audit"]
        assert result.moment_audit == audit_moments(ensemble, 5000, 3)

    def test_no_audit_unless_asked(self, monkeypatch):
        events = []
        self.spy(monkeypatch, events)
        result = monte_carlo_average(make_mackay(), make_initial_state("caseI"), 4, 10, 3)
        assert events == ["run"]
        assert result.moment_audit is None
        assert "moment_audit" not in result.to_json_dict()

    @pytest.mark.parametrize("draws", [0, -5])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_audit_draws_rejected_before_any_run(self, draws, workers, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a run started before the audit size was checked")

        monkeypatch.setattr(dqwalk.stats, "_mc_block", forbidden)
        with pytest.raises(ValueError, match=f"draws must be at least 1, got {draws}"):
            monte_carlo_average(
                make_mackay(), make_initial_state("caseII"), 10, 10000, 3,
                workers=workers, audit_draws=draws,
            )


class TestTvDistance:
    def test_identical_distributions(self):
        d = binomial_distribution(6)
        assert tv_distance(d, d) == 0.0

    def test_disjoint_point_masses(self):
        d1 = Distribution(1, np.array([1.0, 0.0]))
        d2 = Distribution(1, np.array([0.0, 1.0]))
        assert tv_distance(d1, d2) == 1.0

    def test_mismatched_times_rejected(self):
        with pytest.raises(ValueError):
            tv_distance(binomial_distribution(4), binomial_distribution(6))

    def test_binomial_vs_hadamard_walk(self):
        walk = evolve(QubitState(1, 0), [HADAMARD] * 4)
        value = tv_distance(distribution_of(walk.final), binomial_distribution(4))
        assert value == pytest.approx(0.375, abs=1e-12)
        assert value > 0.05

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            masses = rng.random((3, 6))
            masses /= masses.sum(axis=1, keepdims=True)
            d1, d2, d3 = (Distribution(5, m) for m in masses)
            assert tv_distance(d1, d2) == pytest.approx(tv_distance(d2, d1), abs=1e-14)
            assert tv_distance(d1, d3) <= tv_distance(d1, d2) + tv_distance(d2, d3) + 1e-14
            assert tv_distance(d1, d1) == 0.0


class TestVarianceScan:
    def test_classical_variance_is_exactly_n(self):
        scan = variance_scan(ClassicalWalker(), list(range(10, 101, 10)))
        assert all(variance == float(n) for n, variance in scan.rows)

    def test_deterministic_walker_matches_direct_evolution(self):
        scan = variance_scan(DeterministicWalker(HADAMARD, CASE_I_DEFAULT), [10, 20])
        run = evolve(CASE_I_DEFAULT, [HADAMARD] * 20)
        _, expected = summary_stats(distribution_of(run.final))
        assert dict(scan.rows)[20] == pytest.approx(expected, abs=1e-12)

    def test_deterministic_walker_rejects_a_non_unitary_coin(self):
        # The projector keeps the state (1, 0) at unit norm, so no drift
        # check downstream would see it.
        with pytest.raises(ValueError, match="not unitary"):
            variance_scan(DeterministicWalker(Coin(1, 0, 0, 0), QubitState(1, 0)), [4])

    def test_averaged_walker_reproduces_direct_call(self):
        ensemble = make_ribeiro_two_point(0.7)
        init = make_initial_state("caseI")
        scan = variance_scan(AveragedWalker(ensemble, init, trials=300, master_seed=6), [5, 8])
        direct = monte_carlo_average(ensemble, init, 8, 300, 6)
        _, expected = summary_stats(direct.mean_distribution)
        assert dict(scan.rows)[8] == pytest.approx(expected, abs=1e-15)

    def test_n_list_must_increase(self):
        with pytest.raises(ValueError):
            variance_scan(ClassicalWalker(), [10, 10])
        with pytest.raises(ValueError):
            variance_scan(ClassicalWalker(), [])

    def test_csv_rows(self):
        scan = variance_scan(ClassicalWalker(), [2, 4])
        assert scan.to_csv_rows()[0] == "n,variance"
        assert scan.to_csv_rows()[1] == "2,2.0"
