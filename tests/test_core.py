"""Coin, state, and distribution value types and their checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import distribution_of, haar_coin, split_coin
from dqwalk import (
    EPS_UNIT,
    HADAMARD,
    Coin,
    Distribution,
    NumericalDriftError,
    QubitState,
    WalkState,
    evolve,
    rotation_coin,
    summary_stats,
    validate_coin,
)

H = 1.0 / math.sqrt(2.0)


class TestValidateCoin:
    def test_hadamard_passes_with_tiny_residuals(self):
        report = validate_coin(HADAMARD)
        assert report.ok
        assert max(report.residuals.values()) < 1e-15

    def test_constructed_violation_is_rejected(self):
        report = validate_coin(Coin(1, 1, 0, 0))
        assert not report.ok
        # the second column has unit norm here; the determinant check is
        # what catches this matrix
        assert "det_modulus" in report.failures()

    def test_rotation_coin_passes(self):
        report = validate_coin(rotation_coin(math.pi / 3))
        assert report.ok

    def test_scaled_row_fails_norms(self):
        report = validate_coin(Coin(1, 0, 0, 2))
        assert not report.passed["norm_bd"]

    @pytest.mark.parametrize("seed", range(5))
    def test_haar_coins_pass(self, seed):
        coin = haar_coin(np.random.default_rng(seed))
        assert validate_coin(coin).ok

    def test_reconstruction_relations_hold_for_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            coin = haar_coin(rng)
            delta = coin.determinant
            assert abs(coin.c + delta * coin.b.conjugate()) <= EPS_UNIT
            assert abs(coin.d - delta * coin.a.conjugate()) <= EPS_UNIT

    def test_non_finite_entry_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Coin(float("nan"), 0, 0, 1)


class TestSplitCoin:
    def test_hadamard_split_matches_definitions(self):
        p, q, r, s = split_coin(HADAMARD)
        np.testing.assert_array_equal(p, [[H, H], [0, 0]])
        np.testing.assert_array_equal(q, [[0, 0], [H, -H]])
        np.testing.assert_array_equal(r, [[H, -H], [0, 0]])
        np.testing.assert_array_equal(s, [[0, 0], [H, H]])

    def test_split_reconstructs_coin(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            coin = haar_coin(rng)
            p, q, _, _ = split_coin(coin)
            np.testing.assert_array_equal(p + q, [[coin.a, coin.b], [coin.c, coin.d]])

    def test_split_projector_identities(self):
        rng = np.random.default_rng(4)
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        for _ in range(50):
            p, q, _, _ = split_coin(haar_coin(rng))
            np.testing.assert_allclose(p @ p.conj().T + q @ q.conj().T, eye, atol=EPS_UNIT)
            np.testing.assert_allclose(p @ q.conj().T, zero, atol=EPS_UNIT)
            np.testing.assert_allclose(q @ p.conj().T, zero, atol=EPS_UNIT)

    def test_invalid_coin_rejected(self):
        with pytest.raises(ValueError):
            split_coin(Coin(1, 1, 0, 0))


class TestQubitState:
    def test_accepts_unit_norm(self):
        phi = QubitState(1, 0)
        assert phi.alpha == 1 + 0j

    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError):
            QubitState(1, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QubitState(float("inf"), 0)


class TestWalkState:
    def test_initial_state_layout(self):
        state = evolve(QubitState(1, 0), []).final
        assert state.step == 0
        assert state.psi_l.tolist() == [1 + 0j]
        assert state.psi_r.tolist() == [0j]

    def test_off_support_amplitudes_are_zero(self):
        # Only the n+1 sites of the walk's parity are allocated, and the
        # one step's outer cells hold no amplitude of the other chirality.
        state = evolve(QubitState(1, 0), [HADAMARD]).final
        assert state.psi_l.shape == state.psi_r.shape == (2,)
        assert state.psi_l[1] == 0j
        assert state.psi_r[0] == 0j

    def test_arrays_are_frozen(self):
        state = evolve(QubitState(1, 0), []).final
        with pytest.raises(ValueError):
            state.psi_l[0] = 5.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WalkState(2, np.zeros(2, complex), np.zeros(3, complex))


class TestDistributionOf:
    def test_initial_state_is_point_mass(self):
        dist = distribution_of(WalkState(0, np.array([1 + 0j]), np.array([0j])))
        assert dict(dist.items()) == {0: 1.0}

    def test_one_hadamard_step_splits_evenly(self):
        run = evolve(QubitState(1, 0), [HADAMARD])
        dist = distribution_of(run.final)
        assert dist.prob(-1) == pytest.approx(0.5, abs=1e-15)
        assert dist.prob(1) == pytest.approx(0.5, abs=1e-15)

    def test_total_mass_is_one(self):
        rng = np.random.default_rng(9)
        run = evolve(QubitState(1, 0), [haar_coin(rng) for _ in range(40)])
        assert distribution_of(run.final).total() == pytest.approx(1.0, abs=1e-12)

    def test_drift_raises(self):
        bad = WalkState(1, np.array([0.9, 0.0], complex), np.array([0.0, 0.1], complex))
        with pytest.raises(NumericalDriftError):
            distribution_of(bad)


class TestDistribution:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            Distribution(1, np.array([-0.1, 1.1]))

    def test_prob_off_support_is_zero(self):
        dist = Distribution(2, np.array([0.25, 0.5, 0.25]))
        assert dist.prob(1) == 0.0
        assert dist.prob(6) == 0.0

    def test_json_round_trip_layout(self):
        dist = Distribution(2, np.array([0.25, 0.5, 0.25]))
        payload = dist.to_json_dict()
        assert payload == {"n": 2, "mass": [[-2, 0.25], [0, 0.5], [2, 0.25]]}
        rows = dist.to_csv_rows()
        assert rows[0] == "k,probability"
        assert rows[1].startswith("-2,")


class TestSummaryStats:
    def test_two_point_distribution(self):
        dist = Distribution(1, np.array([0.5, 0.5]))
        mean, variance = summary_stats(dist)
        assert mean == 0.0
        assert variance == 1.0

    def test_binomial_walk_variance_equals_n(self):
        from dqwalk import binomial_distribution

        _, variance = summary_stats(binomial_distribution(10))
        assert variance == 10.0

    def test_hadamard_walk_ballistic_ratio(self):
        # variance/n^2 of the symmetric Hadamard walk at n=100; value
        # frozen from a direct run (approximately 1 - 1/sqrt 2)
        from dqwalk import CASE_I_DEFAULT

        run = evolve(CASE_I_DEFAULT, [HADAMARD] * 100)
        _, variance = summary_stats(distribution_of(run.final))
        assert 0.2 <= variance / 100**2 <= 0.4
