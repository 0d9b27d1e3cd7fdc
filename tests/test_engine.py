"""Walk evolution: single steps, full runs, and seeded realizations."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqwalk
from conftest import _draw_haar, diagonal_rows, haar_coins, kernel_rows, split_coin
from dqwalk import (
    CASE_I_DEFAULT,
    HADAMARD,
    Coin,
    NumericalDriftError,
    QubitState,
    distribution_of,
    evolve,
    make_fixed,
    make_initial_state,
    make_ribeiro_two_point,
    run_realization,
)
from dqwalk.engine import Q_MIN, _evolve_block
from dqwalk.stats import _SubBlockDraws, draw_realization


def brute_force_distribution(phi: QubitState, coins) -> dict[int, float]:
    """Independent oracle: sum explicit matrix products over all 2^n paths.

    Each path is a left/right move sequence; its amplitude contribution is
    the ordered product of the corresponding P or Q matrices applied to
    phi, landing on the site given by the net displacement.
    """
    n = len(coins)
    split = [split_coin(c)[:2] for c in coins]
    amps: dict[int, np.ndarray] = {}
    for moves in itertools.product((-1, +1), repeat=n):
        vec = phi.vector
        for j, move in enumerate(moves):
            p, q = split[j]
            vec = (p if move < 0 else q) @ vec
        site = sum(moves)
        amps[site] = amps.get(site, np.zeros(2, complex)) + vec
    return {k: float(np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2) for k, v in amps.items()}


def amplitude(state, k: int) -> tuple[complex, complex]:
    """The (left, right) amplitude pair of `state` at site k of its support."""
    i = (k + state.step) // 2
    return complex(state.psi_l[i]), complex(state.psi_r[i])


class TestStep:
    def test_single_step_routes_p_left_and_q_right(self):
        rng = np.random.default_rng(0)
        (coin,) = haar_coins(rng, 1)
        phi = QubitState(0.6, 0.8j)
        state = evolve(phi, [coin]).final
        p, q, _, _ = split_coin(coin)
        # Sites -1 and 1 only: site 0 has the other parity and is not stored.
        assert state.psi_l.shape == state.psi_r.shape == (2,)
        np.testing.assert_allclose(
            np.array(amplitude(state, -1)), p @ phi.vector, atol=1e-15
        )
        np.testing.assert_allclose(
            np.array(amplitude(state, 1)), q @ phi.vector, atol=1e-15
        )

    def test_two_steps_interfere_at_origin(self):
        rng = np.random.default_rng(1)
        c1, c2 = haar_coins(rng, 2)
        phi = QubitState(1, 0)
        state = evolve(phi, [c1, c2]).final
        p1, q1, _, _ = split_coin(c1)
        p2, q2, _, _ = split_coin(c2)
        expected = (p2 @ q1 + q2 @ p1) @ phi.vector
        np.testing.assert_allclose(np.array(amplitude(state, 0)), expected, atol=1e-15)

    def test_identity_coin_is_a_pure_shift(self):
        coin = Coin(1, 0, 0, 1)
        phi = QubitState(0.6, 0.8)
        state = evolve(phi, [coin, coin]).final
        assert amplitude(state, -2) == (0.6 + 0j, 0j)
        assert amplitude(state, 2) == (0j, 0.8 + 0j)
        assert amplitude(state, 0) == (0j, 0j)

    def test_drift_check_survives_optimized_mode(self):
        # Under -O every assert is stripped; the drift check must still raise.
        program = (
            "from dqwalk import Coin, NumericalDriftError, QubitState, evolve\n"
            "try:\n"
            "    evolve(QubitState(1, 0), [Coin(2, 0, 0, 2)])\n"
            "except NumericalDriftError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    raise SystemExit('no drift error')\n"
        )
        src = str(Path(dqwalk.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", program],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "drifted" in proc.stdout


class TestEvolve:
    def test_drift_is_checked_after_every_step(self):
        # The second coin undoes the first one's growth, so the final norm
        # is 1 again; only a check after each step sees the drift.
        with pytest.raises(NumericalDriftError, match="at step 1"):
            evolve(QubitState(1, 0), [Coin(2, 0, 0, 2), Coin(0.5, 0, 0, 0.5)])

    def test_zero_steps(self):
        run = evolve(QubitState(1, 0), [])
        assert dict(run.distribution().items()) == {0: 1.0}

    def test_hadamard_matches_brute_force_paths(self):
        phi = QubitState(1, 0)
        run = evolve(phi, [HADAMARD] * 4)
        oracle = brute_force_distribution(phi, [HADAMARD] * 4)
        dist = run.distribution()
        for k in range(-4, 5):
            assert dist.prob(k) == pytest.approx(oracle.get(k, 0.0), abs=1e-14)

    def test_random_coins_match_brute_force_paths(self):
        rng = np.random.default_rng(17)
        coins = haar_coins(rng, 6)
        phi = QubitState(0.8, 0.6j)
        dist = evolve(phi, coins).distribution()
        oracle = brute_force_distribution(phi, coins)
        for k in range(-6, 7):
            assert dist.prob(k) == pytest.approx(oracle.get(k, 0.0), abs=1e-13)

    def test_norm_preserved_for_long_runs(self):
        rng = np.random.default_rng(23)
        coins = haar_coins(rng, 300)
        dist = distribution_of(evolve(CASE_I_DEFAULT, coins).final)
        assert abs(dist.total() - 1.0) <= 300 * 1e-14

    def test_parity_sites_never_allocated(self):
        rng = np.random.default_rng(2)
        run = evolve(QubitState(1, 0), haar_coins(rng, 7))
        dist = run.distribution()
        assert list(dist.sites()) == [-7, -5, -3, -1, 1, 3, 5, 7]
        assert dist.prob(0) == 0.0
        assert dist.prob(2) == 0.0

    def test_hadamard_walk_symmetric_from_balanced_state(self):
        dist = evolve(CASE_I_DEFAULT, [HADAMARD] * 60).distribution()
        for k in dist.sites():
            assert dist.prob(int(k)) == pytest.approx(dist.prob(-int(k)), abs=1e-12)

    def test_linearity_in_the_initial_state(self):
        rng = np.random.default_rng(5)
        coins = haar_coins(rng, 9)
        e0, e1 = QubitState(1, 0), QubitState(0, 1)
        alpha, beta = 0.6 + 0.3j, complex(np.sqrt(1 - abs(0.6 + 0.3j) ** 2))
        combined = evolve(QubitState(alpha, beta), coins).final
        run0 = evolve(e0, coins).final
        run1 = evolve(e1, coins).final
        np.testing.assert_allclose(
            combined.psi_l, alpha * run0.psi_l + beta * run1.psi_l, atol=1e-12
        )
        np.testing.assert_allclose(
            combined.psi_r, alpha * run0.psi_r + beta * run1.psi_r, atol=1e-12
        )


def concatenate_kernel(abcd: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Reference block kernel: whole-block steps with fresh arrays per step.

    The arithmetic `_evolve_block` must reproduce bit for bit: the same
    products and sums in the same order, with zero cells appended by
    concatenation.
    """
    trials, n = abcd.shape[0], abcd.shape[1]
    psi_l = initial[:, 0:1].astype(np.complex128)
    psi_r = initial[:, 1:2].astype(np.complex128)
    pad = np.zeros((trials, 1), dtype=np.complex128)
    for j in range(n):
        a, b, c, d = (abcd[:, j, k : k + 1] for k in range(4))
        left = a * psi_l + b * psi_r
        right = c * psi_l + d * psi_r
        psi_l = np.concatenate([left, pad], axis=1)
        psi_r = np.concatenate([pad, right], axis=1)
    return psi_l.real**2 + psi_l.imag**2 + psi_r.real**2 + psi_r.imag**2


def haar_block(seed: int, trials: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Haar coins of shape (trials, n, 4) and Haar initial states (trials, 2)."""
    rng = np.random.default_rng(seed)
    abcd = _draw_haar(rng, trials * n).reshape(trials, n, 4)
    initial = np.ascontiguousarray(_draw_haar(rng, trials)[:, [0, 2]])
    return abcd, initial


def assert_rows_equal_single_evolutions(n: int, trials: int, rows: int, seed: int) -> None:
    """`_evolve_block` rows of a Haar block equal `evolve`'s bits.

    Every row of small blocks; else the first row, the rows either side of
    the first sub-block boundary of `rows` trials and the last row.
    """
    abcd, initial = haar_block(seed, trials, n)
    probs = _evolve_block(abcd, initial)
    assert probs.shape == (trials, n + 1)
    checked = range(trials) if trials <= 8 else {0, rows - 1, rows, trials - 1}
    for t in sorted(t for t in checked if t < trials):
        coins = [Coin(*map(complex, row)) for row in abcd[t]]
        expected = evolve(QubitState(*initial[t]), coins).distribution().probs
        assert np.array_equal(probs[t], expected), t


@pytest.fixture(scope="module")
def block_320():
    return haar_block(320, 1024, 320)


class TestEvolveBlock:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 40),
        shape=st.sampled_from(["one", "seven", "below", "exact", "above"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_single_evolutions(self, n, shape, seed):
        rows = kernel_rows(n, 2**62)
        trials = {"one": 1, "seven": 7, "below": rows - 1, "exact": rows, "above": rows + 1}[shape]
        assert_rows_equal_single_evolutions(n, trials, rows, seed)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([Q_MIN - 1, Q_MIN, Q_MIN + 1, 2 * Q_MIN + 3]),
        shape=st.sampled_from(["two", "seven", "below", "exact", "above"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_diagonal_rows_equal_single_evolutions(self, n, shape, seed):
        # Monte Carlo blocks from Q_MIN steps on step along diagonals, in
        # sub-blocks of their own size; one step fewer goes site-major.
        rows = diagonal_rows(n)
        trials = {"two": 2, "seven": 7, "below": rows - 1, "exact": rows, "above": rows + 1}[shape]
        assert_rows_equal_single_evolutions(n, trials, rows, seed)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(0, 24),
        trials=st.sampled_from([1, 2, 9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_amplitude_starts_equal_origin_starts(self, n, trials, seed):
        # Finishing every walk from its state after n0 coins gives the bits
        # of evolving it from the origin, at every split point n0, n0 = n
        # (no coins left) included.
        abcd, initial = haar_block(seed, trials, n)
        expected = _evolve_block(abcd, initial)
        coins = [[Coin(*map(complex, row)) for row in abcd[t]] for t in range(trials)]
        for n0 in range(n + 1):
            finals = [evolve(QubitState(*initial[t]), coins[t][:n0]).final for t in range(trials)]
            states = np.array([np.stack((f.psi_l, f.psi_r), axis=-1) for f in finals])
            assert states.shape == (trials, n0 + 1, 2)
            probs = _evolve_block(abcd[:, n0:], states)
            assert np.array_equal(probs, expected), n0

    def test_several_sub_blocks_equal_concatenate_kernel(self, block_320):
        # n=320 steps along diagonals: full sub-blocks plus a remainder.
        abcd, initial = block_320
        assert 320 >= Q_MIN and 1024 % diagonal_rows(320) != 0
        assert np.array_equal(_evolve_block(abcd, initial), concatenate_kernel(abcd, initial))

    @pytest.mark.parametrize(
        "n, trials", [(10, 700), (Q_MIN - 1, 400), (Q_MIN, 400), (320, 100), (320, 2)]
    )
    def test_sub_blocks_hold_kernel_rows(self, n, trials):
        # The tests above cross sub-block boundaries at `kernel_rows`.
        abcd, initial = haar_block(n, trials, n)
        slices = []

        def rows(lo, hi):
            slices.append((lo, hi))
            return abcd[lo:hi]

        probs = _evolve_block(_SubBlockDraws(abcd.shape, rows), initial)
        assert probs.tobytes() == _evolve_block(abcd, initial).tobytes()
        step = kernel_rows(n, trials)
        assert slices == [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]

    def test_diagonal_loop_equals_site_major_loop(self, block_320):
        # An amplitude start over one site is stepped site-major; the same
        # block from the origin is stepped along diagonals.
        abcd, initial = block_320
        site_major = _evolve_block(abcd, initial[:, np.newaxis, :])
        assert _evolve_block(abcd, initial).tobytes() == site_major.tobytes()

    def test_step_loop_allocates_nothing(self, block_320):
        # Only the output and the fixed sub-block buffers may be allocated;
        # a per-step temporary of the whole block alone would be 5.3 MB.
        abcd, initial = block_320
        tracemalloc.start()
        try:
            probs = _evolve_block(abcd, initial)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= probs.nbytes + 4 * 2**20


class TestRunRealization:
    def test_zero_steps_point_mass(self):
        dist = run_realization(make_ribeiro_two_point(0.2), make_initial_state("caseI"), 0, 1)
        assert list(dist.sites()) == [0]
        assert dist.prob(0) == pytest.approx(1.0, abs=1e-12)

    def test_fixed_hadamard_matches_explicit_evolution(self):
        init = make_initial_state("caseI")
        dist = run_realization(make_fixed(), init, 12, 99)
        reference = evolve(CASE_I_DEFAULT, [HADAMARD] * 12).distribution()
        assert np.array_equal(dist.probs, reference.probs)

    def test_repeated_calls_identical(self):
        ensemble = make_ribeiro_two_point(np.pi / 4)
        init = make_initial_state("caseI")
        first = run_realization(ensemble, init, 6, master_seed=5)
        second = run_realization(ensemble, init, 6, master_seed=5)
        assert np.array_equal(first.probs, second.probs)

    def test_different_trials_differ(self):
        ensemble = make_ribeiro_two_point(np.pi / 4)
        init = make_initial_state("caseI")
        a = run_realization(ensemble, init, 8, 5, trial=0)
        b = run_realization(ensemble, init, 8, 5, trial=1)
        assert not np.array_equal(a.probs, b.probs)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            run_realization(make_fixed(), make_initial_state("caseI"), -1, 0)

    @pytest.mark.parametrize("init", ["caseI", "caseII"])
    def test_draws_evolved_whole_give_the_run(self, init):
        # `coeffs` rebuilds its walk from these draws.
        ensemble, rule = make_ribeiro_two_point(0.2), make_initial_state(init)
        rows, initial = draw_realization(ensemble, rule, 9, 5, trial=3)
        assert (rows.shape, initial.shape) == ((9, 4), (1, 2))
        coins = [Coin(*map(complex, row)) for row in rows]
        phi = QubitState(*map(complex, initial[0]))
        dist = run_realization(ensemble, rule, 9, 5, trial=3)
        assert np.array_equal(dist.probs, evolve(phi, coins).distribution().probs)
