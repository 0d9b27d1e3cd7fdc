"""Product table, coefficient DP, exact averaging, and the binomial law."""

from __future__ import annotations

import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _draw_haar, haar_coins, make_haar
from dqwalk import (
    BASIS_LABELS,
    CASE_I_DEFAULT,
    CoinEnsemble,
    EnumerationInfeasibleError,
    QubitState,
    binomial_distribution,
    binomial_law,
    coefficients,
    evolve,
    exact_average,
    make_fixed,
    make_initial_state,
    make_mackay,
    make_ribeiro_two_point,
    product_table,
    reconstruct_state,
    split_coin,
    term_count,
    tv_distance,
)
from dqwalk import pathsum
from dqwalk.pathsum import symbolic_monomials
from dqwalk.engine import _evolve_block


def basis_matrices(coin):
    p, q, r, s = split_coin(coin)
    return {"P": p, "Q": q, "R": r, "S": s}


class TestProductTable:
    def test_all_sixteen_entries_match_matrix_products(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            left_coin, right_coin = haar_coins(rng, 2)
            left_mats = basis_matrices(left_coin)
            right_mats = basis_matrices(right_coin)
            for left in BASIS_LABELS:
                for right in BASIS_LABELS:
                    scalar, result = product_table(left, left_coin, right)
                    expected = left_mats[left] @ right_mats[right]
                    np.testing.assert_allclose(
                        scalar * right_mats[result], expected, atol=1e-14
                    )

    def test_named_entries(self):
        rng = np.random.default_rng(32)
        (coin,) = haar_coins(rng, 1)
        assert product_table("P", coin, "Q") == (coin.b, "R")
        assert product_table("Q", coin, "P") == (coin.c, "S")

    def test_bad_label_rejected(self):
        rng = np.random.default_rng(33)
        (coin,) = haar_coins(rng, 1)
        with pytest.raises(ValueError):
            product_table("P", coin, "X")


class TestCoefficients:
    def test_worked_expansion_at_n4_site0(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            w1, w2, w3, w4 = haar_coins(rng, 4)
            p, q, r, s = coefficients([w1, w2, w3, w4], 4).vector(0)
            assert abs(p - w4.b * w3.d * w2.c) <= 1e-12
            assert abs(q - w4.c * w3.a * w2.b) <= 1e-12
            assert abs(r - (w4.a * w3.b * w2.d + w4.b * w3.c * w2.b)) <= 1e-12
            assert abs(s - (w4.c * w3.b * w2.c + w4.d * w3.c * w2.a)) <= 1e-12

    def test_two_step_origin_coefficients(self):
        rng = np.random.default_rng(41)
        w1, w2 = haar_coins(rng, 2)
        p, q, r, s = coefficients([w1, w2], 2).vector(0)
        assert (p, q) == (0j, 0j)
        assert abs(r - w2.b) <= 1e-15
        assert abs(s - w2.c) <= 1e-15

    def test_step_one_seeds(self):
        rng = np.random.default_rng(42)
        coins = haar_coins(rng, 1)
        pc = coefficients(coins, 1)
        assert pc.vector(-1) == (1 + 0j, 0j, 0j, 0j)
        assert pc.vector(1) == (0j, 1 + 0j, 0j, 0j)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            coefficients([], 0)

    def test_too_few_coins_rejected(self):
        rng = np.random.default_rng(43)
        with pytest.raises(ValueError):
            coefficients(haar_coins(rng, 2), 3)

    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    def test_reconstruction_matches_engine(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            coins = haar_coins(rng, n)
            phi = QubitState(0.6, 0.8j)
            rebuilt = reconstruct_state(coefficients(coins, n), coins[0], phi)
            reference = evolve(phi, coins).final
            assert np.abs(rebuilt.psi_l - reference.psi_l).max() <= 1e-10
            assert np.abs(rebuilt.psi_r - reference.psi_r).max() <= 1e-10

    def test_first_coin_never_read(self):
        rng = np.random.default_rng(50)
        coins = haar_coins(rng, 8)
        replacement = haar_coins(rng, 1)
        original = coefficients(coins, 8)
        swapped = coefficients(replacement + coins[1:], 8)
        assert np.array_equal(original.coeffs, swapped.coeffs)

    def test_coefficient_norm_identity(self):
        rng = np.random.default_rng(51)
        coins = haar_coins(rng, 10)
        rebuilt = reconstruct_state(coefficients(coins, 10), coins[0], CASE_I_DEFAULT)
        assert rebuilt.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_json_export_layout(self):
        rng = np.random.default_rng(52)
        coins = haar_coins(rng, 2)
        payload = coefficients(coins, 2).to_json_dict()
        assert payload["n"] == 2
        assert [site for site, _ in payload["sites"]] == [-2, 0, 2]
        assert all(len(flat) == 8 for _, flat in payload["sites"])


class TestTermCount:
    def test_known_counts(self):
        assert term_count(4, 0) == 6
        assert term_count(6, 6) == 1
        assert term_count(6, 2) == 15

    def test_parity_violation_rejected(self):
        with pytest.raises(ValueError):
            term_count(4, 1)
        with pytest.raises(ValueError):
            term_count(4, 6)

    @given(st.integers(min_value=0, max_value=200))
    def test_counts_sum_to_all_paths(self, n):
        assert sum(term_count(n, k) for k in range(-n, n + 1, 2)) == 2**n

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_monomial_enumeration_matches(self, n):
        per_site = symbolic_monomials(n)
        for k in range(-n, n + 1, 2):
            total = sum(len(mons) for mons in per_site[k].values())
            assert total == term_count(n, k)

    def test_worked_example_monomial_split(self):
        at_origin = symbolic_monomials(4)[0]
        assert {label: len(m) for label, m in at_origin.items()} == {
            "P": 1, "Q": 1, "R": 2, "S": 2,
        }

    def test_symbolic_mode_capped(self):
        with pytest.raises(ValueError):
            symbolic_monomials(11)


class TestBinomialLaw:
    def test_known_values(self):
        assert binomial_law(4, 0) == 0.375
        assert binomial_law(10, 0) == 63 / 256
        assert binomial_law(5, 6) == 0.0
        assert binomial_law(5, 4) == 0.0

    def test_large_n_is_overflow_safe(self):
        total = sum(binomial_law(1000, k) for k in range(-1000, 1001, 2))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert binomial_law(1000, 1000) == pytest.approx(2.0**-1000, rel=1e-12)

    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=-410, max_value=410))
    @settings(max_examples=200)
    def test_law_properties(self, n, k):
        p = binomial_law(n, k)
        assert 0.0 <= p <= 1.0
        assert p == binomial_law(n, -k)
        if (n + k) % 2 != 0 or abs(k) > n:
            assert p == 0.0

    def test_distribution_matches_pointwise(self):
        dist = binomial_distribution(9)
        for k in range(-9, 10):
            assert dist.prob(k) == binomial_law(9, k)


def whole_sequence_average(support, phi: QubitState, n: int, chunk: int) -> np.ndarray:
    """Oracle: evolve every coin sequence whole from the origin.

    Sums chunks of `chunk` sequences in itertools.product order, each
    weighted by its product of support weights, as enumeration did before
    sequences shared their coin prefixes.
    """
    if n == 0:
        return np.ones(1)
    rows = np.array([[c.a, c.b, c.c, c.d] for c, _ in support])
    weights = np.array([w for _, w in support])
    combos = list(itertools.product(range(len(support)), repeat=n))
    total = np.zeros(n + 1)
    for start in range(0, len(combos), chunk):
        idx = np.array(combos[start : start + chunk])
        initial = np.tile([phi.alpha, phi.beta], (len(idx), 1))
        total += np.prod(weights[idx], axis=1) @ _evolve_block(rows[idx], initial)
    return total


@st.composite
def enumeration_cases(draw):
    """(support, phi, n, chunk): 1-4 Haar coins, a random state, s^n <= 1024."""
    s = draw(st.integers(1, 4))
    n = draw(st.integers(0, 9 if s <= 2 else {3: 6, 4: 5}[s]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(s) + 0.05
    weights /= weights.sum()
    support = tuple(zip(haar_coins(rng, s), weights.tolist()))
    alpha, beta = _draw_haar(rng, 1)[0, [0, 2]]
    chunk = draw(st.sampled_from([1, 2, 7, 64, s ** draw(st.integers(0, n))]))
    return support, QubitState(complex(alpha), complex(beta)), n, chunk


class TestExactAverage:
    def test_two_point_n4_reproduces_central_mass(self):
        ensemble = make_ribeiro_two_point(math.pi / 4)
        dist = exact_average(ensemble, make_initial_state("caseI"), 4)
        assert abs(dist.prob(0) - 6 / 16) <= 1e-12

    def test_zero_steps(self):
        dist = exact_average(make_ribeiro_two_point(0.5), make_initial_state("caseI"), 0)
        assert dict(dist.items()) == {0: 1.0}

    def test_n8_matches_binomial_everywhere(self):
        ensemble = make_ribeiro_two_point(math.pi / 4)
        dist = exact_average(ensemble, make_initial_state("caseI"), 8)
        for k in range(-8, 9):
            assert abs(dist.prob(k) - binomial_law(8, k)) <= 1e-12

    def test_continuous_support_rejected(self):
        with pytest.raises(EnumerationInfeasibleError):
            exact_average(make_mackay(), make_initial_state("caseI"), 4)
        with pytest.raises(EnumerationInfeasibleError):
            exact_average(make_haar(), make_initial_state("caseI"), 4)

    def test_random_initial_state_rejected(self):
        with pytest.raises(ValueError):
            exact_average(make_ribeiro_two_point(0.5), make_initial_state("caseII"), 4)

    def test_sequence_cap_enforced(self, monkeypatch):
        ensemble = make_ribeiro_two_point(0.5)
        with pytest.raises(EnumerationInfeasibleError):
            exact_average(ensemble, make_initial_state("caseI"), 24)
        # a lower cap is honoured too
        monkeypatch.setattr(pathsum, "_MAX_SEQUENCES", 15)
        with pytest.raises(EnumerationInfeasibleError):
            exact_average(ensemble, make_initial_state("caseI"), 4)
        monkeypatch.setattr(pathsum, "_MAX_SEQUENCES", 16)
        assert exact_average(ensemble, make_initial_state("caseI"), 4).n == 4

    @settings(max_examples=40, deadline=None)
    @given(case=enumeration_cases())
    @example(
        case=(
            tuple(zip(haar_coins(np.random.default_rng(11), 3), (0.5, 0.3, 0.2))),
            QubitState(0.6, 0.8j),
            5,
            7,
        )
    )
    def test_enumeration_order_and_chunks_match_itertools(self, case):
        # Random finite supports and states, enumerated in chunks of any
        # size (partial last chunks included), against every sequence
        # evolved whole from the origin: identical bits.
        support, phi, n, chunk = case
        ensemble = CoinEnsemble(name="mixture", draw_parameters=None, finite_support=support)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pathsum, "_ENUMERATION_CHUNK", chunk)
            dist = exact_average(ensemble, make_initial_state(phi), n)
        assert np.array_equal(dist.probs, whole_sequence_average(support, phi, n, chunk))

    def test_default_chunks_at_n17_match_itertools(self):
        # The benchmark's case: 2^17 sequences in 8 chunks of the real size.
        ensemble = make_ribeiro_two_point(0.7854)
        dist = exact_average(ensemble, make_initial_state("caseI"), 17)
        expected = whole_sequence_average(
            ensemble.finite_support, CASE_I_DEFAULT, 17, chunk=pathsum._ENUMERATION_CHUNK
        )
        assert np.array_equal(dist.probs, expected)

    def test_memory_stays_below_a_per_sequence_coin_array(self):
        # The 2^17 sequences need no (chunk, n, 4) coin array (17.8 MB per
        # chunk at n=17) and no per-sequence index or gathered states; one
        # trie level and the chunk's probabilities stay small.
        tracemalloc.start()
        try:
            exact_average(make_ribeiro_two_point(0.7854), make_initial_state("caseI"), 17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_threads_keep_bits(self, monkeypatch):
        # Every average owns its buffers: concurrent averages, each over 16
        # chunks with a short switch interval, all give the serial bits.
        monkeypatch.setattr(pathsum, "_ENUMERATION_CHUNK", 256)
        ensemble, init = make_ribeiro_two_point(0.7854), make_initial_state("caseI")
        expected = exact_average(ensemble, init, 12).probs
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(exact_average, ensemble, init, 12) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for dist in results:
            assert np.array_equal(dist.probs, expected)

    def test_fixed_hadamard_differs_from_binomial(self):
        # the deterministic walk is the counterexample: balance holds but
        # the cross moment does not, and the distance is large
        dist = exact_average(make_fixed(), make_initial_state((1, 0)), 4)
        assert tv_distance(dist, binomial_distribution(4)) > 0.05
