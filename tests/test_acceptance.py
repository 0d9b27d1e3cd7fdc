"""Acceptance suite: one test per release criterion, with pass/fail lines.

Run as ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here, not tuned at runtime.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import haar_coins
from dqwalk import (
    CASE_I_DEFAULT,
    HADAMARD,
    AveragedWalker,
    ClassicalWalker,
    Coin,
    DeterministicWalker,
    QubitState,
    audit_moments,
    binomial_distribution,
    binomial_law,
    coefficients,
    evolve,
    exact_average,
    make_fixed,
    make_initial_state,
    make_mackay,
    make_ribeiro_two_point,
    make_ribeiro_uniform,
    make_shapira,
    monte_carlo_average,
    mu_shapira,
    reconstruct_state,
    run_realization,
    substream,
    tv_distance,
    variance_scan,
)

SQRT3_HALF = math.sqrt(3.0) / 2.0


def report(number: int, description: str) -> None:
    print(f"[acceptance] criterion {number}: PASS - {description}")


def test_criterion_1_exact_binomial_collapse():
    """Exact averages equal the binomial law for two-point ensembles."""
    start = time.perf_counter()
    init = make_initial_state("caseI")
    for xi in (0.0, math.pi / 4, 1.0):
        ensemble = make_ribeiro_two_point(xi)
        for n in (2, 4, 6, 8):
            dist = exact_average(ensemble, init, n)
            deviation = max(abs(dist.prob(k) - binomial_law(n, k)) for k in range(-n, n + 1))
            assert deviation <= 1e-12, (xi, n, deviation)
    central = exact_average(make_ribeiro_two_point(math.pi / 4), init, 4).prob(0)
    assert abs(central - 6 / 16) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"exact averages match binomial to 1e-12 ({elapsed:.2f}s)")


def test_criterion_2_monte_carlo_case_i():
    """Averaged uniform-rotation walk agrees with binomial at n=10."""
    start = time.perf_counter()
    result = monte_carlo_average(
        make_ribeiro_uniform(), make_initial_state("caseI"), 10, 100_000, master_seed=7
    )
    deviation = max(
        abs(result.mean_distribution.prob(k) - binomial_law(10, k)) for k in range(-10, 11)
    )
    assert deviation <= 3.0 * result.stderr_max
    assert result.tv_to_binomial <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        2,
        f"case-I MC: max dev {deviation:.2e} <= 3*stderr, tv {result.tv_to_binomial:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_3_monte_carlo_case_ii():
    """Averaged phase-coin walk with random initial states agrees too."""
    start = time.perf_counter()
    result = monte_carlo_average(
        make_mackay(), make_initial_state("caseII"), 10, 100_000, master_seed=7
    )
    deviation = max(
        abs(result.mean_distribution.prob(k) - binomial_law(10, k)) for k in range(-10, 11)
    )
    assert deviation <= 3.0 * result.stderr_max
    assert result.tv_to_binomial <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        3,
        f"case-II MC: max dev {deviation:.2e} <= 3*stderr, tv {result.tv_to_binomial:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_4_worked_coefficient_monomials():
    """The n=4 origin coefficients match their closed-form monomials."""
    rng = np.random.default_rng(1234)
    for _ in range(100):
        w1, w2, w3, w4 = haar_coins(rng, 4)
        p, q, r, s = coefficients([w1, w2, w3, w4], 4).vector(0)
        assert abs(p - w4.b * w3.d * w2.c) <= 1e-12
        assert abs(q - w4.c * w3.a * w2.b) <= 1e-12
        assert abs(r - (w4.a * w3.b * w2.d + w4.b * w3.c * w2.b)) <= 1e-12
        assert abs(s - (w4.c * w3.b * w2.c + w4.d * w3.c * w2.a)) <= 1e-12
    report(4, "n=4 origin coefficients match closed-form monomials for 100 draws")


def test_criterion_5_reconstruction_and_first_coin_independence():
    """Basis reconstruction equals engine amplitudes; coin 1 is never read."""
    rng = np.random.default_rng(4321)
    worst = 0.0
    for index in range(200):
        n = int(rng.integers(1, 13))
        coins = haar_coins(rng, n)
        phi = QubitState(0.6, 0.8j) if index % 2 == 0 else CASE_I_DEFAULT
        pc = coefficients(coins, n)
        rebuilt = reconstruct_state(pc, coins[0], phi)
        reference = evolve(phi, coins).final
        residual = max(
            float(np.abs(rebuilt.psi_l - reference.psi_l).max()),
            float(np.abs(rebuilt.psi_r - reference.psi_r).max()),
        )
        worst = max(worst, residual)
        assert residual <= 1e-10
        swapped = coefficients(haar_coins(rng, 1) + coins[1:], n)
        assert np.array_equal(pc.coeffs, swapped.coeffs)
    report(5, f"200 reconstructions within 1e-10 (worst {worst:.2e}); coin-1 invariant")


def test_criterion_6_shapira_moments():
    """Closed-form cross moment reproduced by sampling; condition flagged."""
    start = time.perf_counter()
    assert 0.0175 <= mu_shapira(SQRT3_HALF) <= 0.0185
    for sigma in (0.3, SQRT3_HALF, 2.0):
        rep = audit_moments(make_shapira(sigma), draws=10**6, seed=11)
        estimate = rep.estimates["a_conj_c"]
        stderr = rep.stderrs["a_conj_c"]
        assert abs(estimate - mu_shapira(sigma)) <= 4.0 * stderr, sigma
        assert rep.eq_cross == "violated", sigma
        assert rep.eq_balance == "satisfied", sigma
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, f"cross moment matches closed form at 3 widths; flagged violated ({elapsed:.1f}s)")


def test_criterion_7_variance_scaling():
    """Classical diffusive, deterministic ballistic, averaged diffusive."""
    scan = variance_scan(ClassicalWalker(), list(range(1, 101)))
    assert all(variance == float(n) for n, variance in scan.rows)

    scan = variance_scan(DeterministicWalker(HADAMARD, CASE_I_DEFAULT), list(range(20, 101)))
    ratios = np.array([variance / n**2 for n, variance in scan.rows])
    center = ratios.mean()
    assert np.all(ratios >= 0.9 * center) and np.all(ratios <= 1.1 * center)

    scan = variance_scan(
        AveragedWalker(make_ribeiro_uniform(), make_initial_state("caseI"), 10_000, 7),
        [10, 20, 50],
    )
    for n, variance in scan.rows:
        assert 0.9 <= variance / n <= 1.1, (n, variance)
    report(7, f"variance: classical = n, ballistic ratio {center:.4f} +-10%, averaged/n in [0.9,1.1]")


def test_criterion_8_deterministic_counterexample():
    """Without coin randomness the binomial collapse fails visibly."""
    dist = exact_average(make_fixed(), make_initial_state((1, 0)), 4)
    distance = tv_distance(dist, binomial_distribution(4))
    assert distance > 0.05
    report(8, f"fixed Hadamard at n=4: tv to binomial {distance:.3f} > 0.05")


def test_criterion_9_engine_hygiene(pool_sizes):
    """Property suites over randomized configurations."""
    start = time.perf_counter()
    catalog = [
        make_ribeiro_uniform(),
        make_ribeiro_two_point(0.9),
        make_mackay(),
        make_shapira(SQRT3_HALF),
    ]

    # unitarity: 1e4 draws per catalog ensemble, residuals below 1e-12
    for ensemble in catalog:
        rows = ensemble.sample_batch(substream(1000), 10_000)
        a, b, c, d = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        delta = a * d - b * c
        assert np.abs(np.abs(a) ** 2 + np.abs(c) ** 2 - 1).max() < 1e-12
        assert np.abs(np.abs(b) ** 2 + np.abs(d) ** 2 - 1).max() < 1e-12
        assert np.abs(a * np.conj(c) + b * np.conj(d)).max() < 1e-12
        assert np.abs(np.abs(delta) - 1).max() < 1e-12
        assert np.abs(c + delta * np.conj(b)).max() < 1e-12
        assert np.abs(d - delta * np.conj(a)).max() < 1e-12

    # normalization and parity on 1e3 randomized (ensemble, seed, n) configs
    picker = np.random.default_rng(2024)
    inits = [make_initial_state("caseI"), make_initial_state("caseII")]
    for index in range(1000):
        ensemble = catalog[int(picker.integers(len(catalog)))]
        init = inits[int(picker.integers(2))]
        n = int(picker.integers(1, 201))
        seed = int(picker.integers(0, 2**32))
        dist = run_realization(ensemble, init, n, seed)
        assert abs(dist.total() - 1.0) <= n * 1e-14
        assert dist.probs.shape == (n + 1,)
        assert dist.prob(n - 1) == 0.0

    # linearity of the evolution in the initial state
    lin_rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(lin_rng.integers(1, 31))
        coins = haar_coins(lin_rng, n)
        mix = lin_rng.uniform(0.0, 2.0 * math.pi)
        arg = lin_rng.uniform(0.0, 2.0 * math.pi)
        alpha = math.cos(mix) * complex(math.cos(arg), math.sin(arg))
        beta = math.sin(mix)
        run_a = evolve(QubitState(1, 0), coins).final
        run_b = evolve(QubitState(0, 1), coins).final
        combined = evolve(QubitState(alpha, beta), coins).final
        assert np.abs(combined.psi_l - (alpha * run_a.psi_l + beta * run_b.psi_l)).max() <= 1e-12
        assert np.abs(combined.psi_r - (alpha * run_a.psi_r + beta * run_b.psi_r)).max() <= 1e-12

    # seeding reproducibility
    for trial in range(100):
        ensemble = catalog[trial % len(catalog)]
        first = run_realization(ensemble, inits[trial % 2], 12, 555, trial=trial)
        second = run_realization(ensemble, inits[trial % 2], 12, 555, trial=trial)
        assert np.array_equal(first.probs, second.probs)

    # worker-count invariance of the trial farm: from n = 63 on a run is
    # one block, so 1500 trials are two runs and two workers fork a pool
    for ensemble in (catalog[0], catalog[2]):
        serial = monte_carlo_average(ensemble, inits[0], 63, 1500, 31, workers=1)
        parallel = monte_carlo_average(ensemble, inits[0], 63, 1500, 31, workers=2)
        assert np.array_equal(
            serial.mean_distribution.probs, parallel.mean_distribution.probs
        )
        assert np.array_equal(serial.stderr, parallel.stderr)
    assert pool_sizes == [2, 2]

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, f"unitarity/normalization/parity/linearity/seeding/workers pass ({elapsed:.1f}s)")
