"""Product table, coefficient DP, exact averaging, and the binomial law."""

from __future__ import annotations

import cmath
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _draw_haar,
    distribution_of,
    haar_coins,
    make_haar,
    shapira_coin,
    split_coin,
)
from dqwalk import (
    CASE_I_DEFAULT,
    HADAMARD,
    Coin,
    CoinEnsemble,
    EnumerationInfeasibleError,
    InitialStateRule,
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
    rotation_coin,
    substream,
    summary_stats,
    tv_distance,
)
from dqwalk import pathsum
from dqwalk.engine import _evolve_block

BASIS_LABELS = ("P", "Q", "R", "S")

# The product table of `dqwalk.pathsum`'s docstring: (left label, right
# label) -> (coin entry of the left factor, result label).
_PRODUCT = {
    ("P", "P"): ("a", "P"), ("P", "Q"): ("b", "R"), ("P", "R"): ("a", "R"), ("P", "S"): ("b", "P"),
    ("Q", "P"): ("c", "S"), ("Q", "Q"): ("d", "Q"), ("Q", "R"): ("c", "Q"), ("Q", "S"): ("d", "S"),
    ("R", "P"): ("c", "P"), ("R", "Q"): ("d", "R"), ("R", "R"): ("c", "R"), ("R", "S"): ("d", "P"),
    ("S", "P"): ("a", "S"), ("S", "Q"): ("b", "Q"), ("S", "R"): ("a", "Q"), ("S", "S"): ("b", "S"),
}


def product_table(left: str, coin: Coin, right: str) -> tuple[complex, str]:
    """Left-multiply basis element `right` by `left` of `coin`.

    Returns the scalar (an entry of `coin`) and the resulting basis label,
    e.g. ``product_table("P", w, "Q") == (w.b, "R")``.
    """
    try:
        entry, result = _PRODUCT[(left, right)]
    except KeyError:
        raise ValueError(f"basis labels must be in {BASIS_LABELS}, got {(left, right)!r}") from None
    return getattr(coin, entry), result


def term_count(n: int, k: int) -> int:
    """Number of n-step paths from the origin to site k: C(n, (n+k)/2)."""
    if (n + k) % 2 != 0 or abs(k) > n:
        raise ValueError(f"site {k} is outside the parity support at n={n}")
    return math.comb(n, (n + k) // 2)


def symbolic_monomials(n: int) -> dict[int, dict[str, set[tuple]]]:
    """Enumerate every path's formal coefficient monomial, for small n.

    Each of the 2^n move sequences reduces through the product table to
    one monomial, a tuple of (coin entry name, step index) factors for
    steps 2..n, attached to a single basis label.  Returns
    {site: {label: set of monomials}}; the total number of monomials at a
    site equals `term_count`.  Capped at n <= 10.
    """
    if not 1 <= n <= 10:
        raise ValueError(f"symbolic enumeration is limited to 1 <= n <= 10, got {n}")
    result: dict[int, dict[str, set[tuple]]] = {}
    for moves in itertools.product((-1, +1), repeat=n):
        label = "P" if moves[0] < 0 else "Q"
        factors = []
        for step_index in range(2, n + 1):
            left = "P" if moves[step_index - 1] < 0 else "Q"
            entry, label = _PRODUCT[(left, label)]
            factors.append((entry, step_index))
        site = sum(moves)
        result.setdefault(site, {lab: set() for lab in BASIS_LABELS})
        result[site][label].add(tuple(factors))
    return result


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


def table_coefficients(coins, n: int) -> np.ndarray:
    """The coefficient DP interpreted from `_PRODUCT`, one update per entry.

    Step m adds, for each right label in P, Q, R, S order, the table's P
    row into sites 0..m-1 and then its Q row into sites 1..m, each product
    on its own into a zeroed (m+1, 4) array.
    """
    index = {label: i for i, label in enumerate(BASIS_LABELS)}
    current = np.zeros((2, 4), dtype=np.complex128)
    current[0, index["P"]] = 1.0
    current[1, index["Q"]] = 1.0
    for m in range(2, n + 1):
        coin = coins[m - 1]
        new = np.zeros((m + 1, 4), dtype=np.complex128)
        for left, rows in (("P", slice(0, m)), ("Q", slice(1, m + 1))):
            for right in BASIS_LABELS:
                entry, result = _PRODUCT[(left, right)]
                new[rows, index[result]] += getattr(coin, entry) * current[:, index[right]]
        current = new
    return current


# Coins with zero entries, whose products are exact zeros or signed zeros.
ZERO_ENTRY_COINS = (Coin(0, 1, 1, 0), Coin(1, 0, 0, -1), rotation_coin(0.0), Coin(0, 1j, 1j, 0))


@st.composite
def coin_sequences(draw):
    """(coins, n): n in 1..60, each coin Haar or one of ZERO_ENTRY_COINS."""
    n = draw(st.integers(1, 60))
    haar = haar_coins(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    picks = draw(st.lists(st.integers(0, len(ZERO_ENTRY_COINS)), min_size=n, max_size=n))
    coins = [ZERO_ENTRY_COINS[k] if k < len(ZERO_ENTRY_COINS) else w for k, w in zip(picks, haar)]
    return coins, n


class TestCoefficientBits:
    @settings(max_examples=200, deadline=None)
    @given(case=coin_sequences())
    def test_step_gives_the_table_loop_bits(self, case):
        # Summing a pair of products before adding it would change the
        # bits, most often next to zero entries.
        coins, n = case
        assert coefficients(coins, n).coeffs.tobytes() == table_coefficients(coins, n).tobytes()


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

    @pytest.mark.parametrize("law", [binomial_distribution, lambda n: binomial_law(n, 0)],
                             ids=["distribution", "law"])
    def test_negative_n_rejected(self, law):
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            law(-1)


def whole_sequence_average(support, phi: QubitState, n: int, chunk: int = 1 << 14) -> np.ndarray:
    """Oracle: evolve every coin sequence whole from the origin.

    Sums chunks of `chunk` sequences in itertools.product order, each
    weighted by its product of support weights.
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
    """(support, phi, n): 1-4 Haar coins, a random state, s^n <= 1024."""
    s = draw(st.integers(1, 4))
    n = draw(st.integers(0, 9 if s <= 2 else {3: 6, 4: 5}[s]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(s) + 0.05
    weights /= weights.sum()
    support = tuple(zip(haar_coins(rng, s), weights.tolist()))
    alpha, beta = _draw_haar(rng, 1)[0, [0, 2]]
    return support, QubitState(complex(alpha), complex(beta)), n


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

    def test_two_point_n24_matches_binomial(self):
        # 2^24 coin sequences, past the reach of enumerating them.
        dist = exact_average(make_ribeiro_two_point(0.7854), make_initial_state("caseI"), 24)
        for k in range(-24, 25):
            assert abs(dist.prob(k) - binomial_law(24, k)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(case=enumeration_cases())
    @example(
        case=(
            tuple(zip(haar_coins(np.random.default_rng(11), 3), (0.5, 0.3, 0.2))),
            QubitState(0.6, 0.8j),
            5,
        )
    )
    def test_mixtures_match_enumeration(self, case):
        # Random finite supports and states against every sequence evolved
        # whole from the origin.
        support, phi, n = case
        ensemble = CoinEnsemble(name="mixture", draw_parameters=None, finite_support=support)
        dist = exact_average(ensemble, make_initial_state(phi), n)
        expected = whole_sequence_average(support, phi, n)
        assert np.max(np.abs(dist.probs - expected)) <= 1e-14

    @pytest.mark.parametrize("phi", [(1, 0), (0, 1), (0.6, 0.8j)], ids=str)
    @pytest.mark.parametrize(
        "s, n", [(1, 1), (1, 9), (2, 1), (2, 2), (2, 9), (3, 2), (3, 6), (4, 5)]
    )
    def test_dense_channel_matches_enumeration(self, monkeypatch, s, n, phi):
        # The channel runs once for every multi-coin support, n-1 steps (0
        # and 1 at n = 1 and 2), and never for one coin; the fixed states
        # (1,0) and (0,1) reach the p = 0 and q = 0 branches of the last step.
        calls = []
        channel_states = pathsum._channel_states

        def spy(*args):
            calls.append(args[-1])
            return channel_states(*args)

        monkeypatch.setattr(pathsum, "_channel_states", spy)
        rng = np.random.default_rng(100 * s + n)
        weights = rng.random(s) + 0.05
        weights /= weights.sum()
        support = tuple(zip(haar_coins(rng, s), weights.tolist()))
        ensemble = CoinEnsemble(name="mixture", draw_parameters=None, finite_support=support)
        phi = QubitState(*phi)
        dist = exact_average(ensemble, make_initial_state(phi), n)
        assert calls == ([] if s == 1 else [n])
        expected = whole_sequence_average(support, phi, n)
        assert np.max(np.abs(dist.probs - expected)) <= 1e-14

    def test_two_point_n200_matches_binomial(self):
        dist = exact_average(make_ribeiro_two_point(0.7854), make_initial_state("caseI"), 200)
        for k in range(-200, 201):
            assert abs(dist.prob(k) - binomial_law(200, k)) <= 1e-12

    def test_bench_case_n17_matches_enumeration(self):
        ensemble = make_ribeiro_two_point(0.7854)
        dist = exact_average(ensemble, make_initial_state("caseI"), 17)
        expected = whole_sequence_average(ensemble.finite_support, CASE_I_DEFAULT, 17)
        assert np.max(np.abs(dist.probs - expected)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 12, 300])
    @pytest.mark.parametrize("coin", ["hadamard", "haar"])
    def test_one_coin_keeps_the_walk_bits(self, coin, n):
        rng = np.random.default_rng(n)
        coin = HADAMARD if coin == "hadamard" else haar_coins(rng, 1)[0]
        alpha, beta = _draw_haar(rng, 1)[0, [0, 2]]
        phi = QubitState(complex(alpha), complex(beta))
        dist = exact_average(make_fixed(coin), make_initial_state(phi), n)
        assert np.array_equal(dist.probs, distribution_of(evolve(phi, [coin] * n).final).probs)

    @staticmethod
    def traced_peak(n, ensemble=make_ribeiro_two_point(0.7854)):
        tracemalloc.start()
        try:
            exact_average(ensemble, make_initial_state("caseI"), n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_stays_below_a_per_sequence_coin_array(self):
        # The 2^17 sequences need no (chunk, n, 4) coin array (17.8 MB per
        # 16384 sequences at n=17): the channel holds two (2, 2, n, n)
        # buffers and the last step two states per site.
        assert self.traced_peak(17) <= 2**20

    def test_memory_at_n100(self):
        # The dense channel's two (2, 2, 100, 100) buffers are 1.3 MB.
        assert self.traced_peak(100) <= 4 * 2**20

    def test_one_coin_memory_is_linear(self):
        # A one-coin average is one walk: O(n) kernel buffers for a single
        # trial and no (2, 2, n, n) channel buffers (256 MB each at n=2000).
        assert self.traced_peak(2000, make_fixed()) <= 512 * 2**10

    def test_threads_keep_bits(self):
        # Every average owns its buffers: concurrent averages with a short
        # switch interval all give the serial bits.
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

    def test_row_moment_decides_the_collapse(self):
        # The averaged populations form a Markov walk only when the row
        # moment E(a conj b) vanishes.  Here the audited column moment
        # E(a conj c) is 0 and the coins are balanced, but E(a conj b) is
        # (1 - i)/4, and the average is not binomial.
        r = 1 / math.sqrt(2)
        support = ((Coin(r, r, -r, r), 0.5), (Coin(r, 1j * r, r, -1j * r), 0.5))
        ensemble = CoinEnsemble(name="row_moment", draw_parameters=None, finite_support=support)
        report = audit_moments(ensemble, 1)
        assert abs(report.estimates["abs_a_sq"] - 0.5) <= 1e-15
        assert report.estimates["a_conj_c"] == 0
        assert abs(sum(w * c.a * c.b.conjugate() for c, w in support) - (1 - 1j) / 4) <= 1e-15
        for n, expected in ((2, [0.125, 0.5, 0.375]), (3, [0.0625, 0.25, 0.5, 0.1875])):
            dist = exact_average(ensemble, make_initial_state("caseI"), n)
            assert np.max(np.abs(dist.probs - expected)) <= 1e-15
            brute = sum(
                math.prod(w for _, w in seq)
                * distribution_of(evolve(CASE_I_DEFAULT, [c for c, _ in seq]).final).probs
                for seq in itertools.product(support, repeat=n)
            )
            assert np.max(np.abs(dist.probs - brute)) <= 1e-15


def random_state(rng: np.random.Generator) -> QubitState:
    z = rng.normal(size=4)
    z /= math.sqrt(float((z * z).sum()))
    return QubitState(complex(z[0], z[1]), complex(z[2], z[3]))


def persistent_walk(p: float, phi: QubitState, n: int) -> np.ndarray:
    """Oracle: the persistent random walk's law after n steps, per index i.

    Each step the left and right populations keep their chirality with
    probability p; then l stays at index i and r moves to i + 1.
    """
    left, right = np.array([abs(phi.alpha) ** 2]), np.array([abs(phi.beta) ** 2])
    for _ in range(n):
        left, right = p * left + (1 - p) * right, (1 - p) * left + p * right
        left, right = np.append(left, 0.0), np.insert(right, 0, 0.0)
    return left + right


class TestPersistentWalkLaw:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 3))
    def test_row_decoupled_ensembles_walk_persistently(self, seed, s):
        # With each coin U_k beside U_k diag(1, -1) at equal weight, the row
        # moment E(a conj b) is 0, so the averaged populations form a closed
        # Markov walk that keeps its chirality with probability E|a|^2.
        rng = np.random.default_rng(seed)
        coins = [shapira_coin(*kick) for kick in rng.normal(size=(s, 3))]
        weights = rng.random(s) + 0.05
        weights = (weights / weights.sum()).tolist()
        support = tuple(
            (flipped, w / 2)
            for coin, w in zip(coins, weights)
            for flipped in (coin, Coin(coin.a, -coin.b, coin.c, -coin.d))
        )
        ensemble = CoinEnsemble(name="row_decoupled", finite_support=support)
        p = sum(w * abs(coin.a) ** 2 for coin, w in zip(coins, weights))
        phi = random_state(rng)
        for n in (1, 7, 30):
            dist = exact_average(ensemble, InitialStateRule(state=phi), n)
            assert np.max(np.abs(dist.probs - persistent_walk(p, phi, n))) <= 1e-13


@st.composite
def konno_coins(draw):
    """A coin with |a|^2 in [0.1, 0.9]: real with random signs, or with random phases."""
    q = draw(st.floats(0.1, 0.9))
    if draw(st.booleans()):
        a, b, det = (draw(st.sampled_from([1.0, -1.0])) for _ in range(3))
    else:
        a, b, det = (cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi))) for _ in range(3))
    a, b = a * math.sqrt(q), b * math.sqrt(1 - q)
    return Coin(a, b, -det * b.conjugate(), det * a.conjugate())


class TestKonnoLimit:
    @settings(max_examples=12, deadline=None)
    @given(coin=konno_coins(), seed=st.integers(0, 2**32 - 1))
    def test_one_coin_second_moment_is_ballistic(self, coin, seed):
        # Konno (Quantum Inf. Process. 1, 345, 2002): X_n / n converges to a
        # law on (-|a|, |a|) with E(X_n / n)^2 -> 1 - sqrt(1 - |a|^2),
        # whatever the state; the error falls like 1/n.
        ensemble = make_fixed(coin)
        init_rule = InitialStateRule(state=random_state(np.random.default_rng(seed)))
        limit = 1 - math.sqrt(1 - abs(coin.a) ** 2)
        for n in (250, 1000, 2000):
            mean, var = summary_stats(exact_average(ensemble, init_rule, n))
            assert abs((var + mean**2) / n**2 - limit) <= 0.02 / n

    @settings(max_examples=24, deadline=None)
    @given(coin=konno_coins(), seed=st.integers(0, 2**32 - 1))
    def test_one_coin_first_moment_follows_konno(self, coin, seed):
        # Konno's law has E(X_n / n) -> -g (1 - sqrt(1 - |a|^2)) with
        # g = |alpha|^2 - |beta|^2 + 2 Re(a alpha conj(b beta)) / |a|^2, in
        # this walk's convention, where the top row moves left.  Over 80
        # random real and complex coins and states n times the error stayed
        # below 0.52 at n = 250, 1000 and 2000, so the bound is 1 / n.
        phi = random_state(np.random.default_rng(seed))
        a, b = coin.a, coin.b
        g = abs(phi.alpha) ** 2 - abs(phi.beta) ** 2
        g += 2 * (a * phi.alpha * (b * phi.beta).conjugate()).real / abs(a) ** 2
        limit = -g * (1 - math.sqrt(1 - abs(a) ** 2))
        for n in (250, 1000, 2000):
            mean, _ = summary_stats(exact_average(make_fixed(coin), InitialStateRule(state=phi), n))
            assert abs(mean / n - limit) <= 1 / n


# Independent coins enter an exact average only through T[a, b, c, d] =
# E[U_ac conj(U_bd)], so a finite support with a continuous ensemble's T
# has that ensemble's exact average.
_H = 1 / math.sqrt(2)


def ribeiro_uniform_support() -> CoinEnsemble:
    """Rotation coins at 0 and pi/2: E cos^2 = E sin^2 = 1/2, E cos sin = 0."""
    support = ((rotation_coin(0.0), 0.5), (rotation_coin(0.5 * math.pi), 0.5))
    return CoinEnsemble(name="ribeiro_uniform_support", finite_support=support)


def mackay_support() -> CoinEnsemble:
    """Phase coins at theta = 0, pi/2, pi and 3pi/2, where e^{i theta} is
    1, i, -1 and -i: the means of e^{+-i theta} and e^{+-2i theta} vanish
    over these four phases as over the circle."""
    support = tuple(
        (Coin(_H, _H * phase, _H * phase.conjugate(), -_H), 0.25) for phase in (1, 1j, -1, -1j)
    )
    return CoinEnsemble(name="mackay_support", finite_support=support)


def shapira_support(sigma: float) -> CoinEnsemble:
    """H with weight (1 + 3 lam) / 4 and H sigma_x, H sigma_y, H sigma_z with
    weight (1 - lam) / 4 each, where lam = 2 mu_shapira(sigma): T is
    lam H[a, c] conj(H[b, d]) + (1 - lam) delta_ab delta_cd / 2, since the
    isotropic SU(2) kick has E[V (x) conj V] = lam I (x) I + (1 - lam) delta
    delta / 2 and sum_k sigma_k (x) conj sigma_k = 2 delta delta - I (x) I."""
    lam = 2 * mu_shapira(sigma)
    paulis = ((0, 1, 1, 0), (0, -1j, 1j, 0), (1, 0, 0, -1))
    coins = [HADAMARD] + [
        Coin(_H * (p00 + p10), _H * (p01 + p11), _H * (p00 - p10), _H * (p01 - p11))
        for p00, p01, p10, p11 in paulis
    ]
    weights = [(1 + 3 * lam) / 4] + [(1 - lam) / 4] * 3
    return CoinEnsemble(name="shapira_support", finite_support=tuple(zip(coins, weights)))


def sampled_second_moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of U_ac conj(U_bd) over (count, 4) coin rows,
    as (2, 2, 2, 2) arrays indexed [a, b, c, d]."""
    u = rows.reshape(-1, 2, 2)
    mean = np.empty((2, 2, 2, 2), dtype=np.complex128)
    stderr = np.empty((2, 2, 2, 2))
    for a, b, c, d in itertools.product(range(2), repeat=4):
        values = u[:, a, c] * np.conj(u[:, b, d])
        mean[a, b, c, d] = values.mean()
        stderr[a, b, c, d] = np.sqrt(np.mean(np.abs(values - mean[a, b, c, d]) ** 2) / len(values))
    return mean, stderr


def support_second_moments(ensemble: CoinEnsemble) -> np.ndarray:
    """T[a, b, c, d] = sum_k w_k U_k[a, c] conj(U_k[b, d]) of a finite support."""
    t = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    for coin, weight in ensemble.finite_support:
        u = np.array([[coin.a, coin.b], [coin.c, coin.d]])
        t += weight * u[:, np.newaxis, :, np.newaxis] * np.conj(u[np.newaxis, :, np.newaxis, :])
    return t


MOMENT_EQUIVALENT = {
    "ribeiro_uniform": (make_ribeiro_uniform, ribeiro_uniform_support),
    "mackay": (make_mackay, mackay_support),
    **{
        f"shapira_{sigma}": (lambda s=sigma: make_shapira(s), lambda s=sigma: shapira_support(s))
        for sigma in (0.3, 1.0, 2.0)
    },
}


class TestMomentEquivalentSupports:
    @pytest.mark.parametrize(
        "name, seed",
        [("ribeiro_uniform", 3), ("ribeiro_uniform", 4), ("mackay", 3), ("mackay", 4),
         ("shapira_0.3", 3), ("shapira_1.0", 3), ("shapira_2.0", 3)],
    )
    def test_support_has_the_sampled_second_moments(self, name, seed):
        # Six of mackay's entries, |U_ac|^2 = 1/2 and U_00 conj(U_11) =
        # -1/2, have no spread, so they are compared without a z-score.
        continuous, support = MOMENT_EQUIVALENT[name]
        sampled, stderr = sampled_second_moments(
            continuous().sample_batch(substream(seed), 200_000)
        )
        error = np.abs(sampled - support_second_moments(support()))
        spread = stderr > 1e-12
        assert np.all(error[spread] <= 5 * stderr[spread])
        assert np.all(error[~spread] <= 1e-12)

    @pytest.mark.parametrize("n", [30, 200])
    @pytest.mark.parametrize("init", ["caseI", (0.6, 0.8j)], ids=str)
    @pytest.mark.parametrize("support", [ribeiro_uniform_support, mackay_support])
    def test_collapsing_supports_are_binomial(self, support, init, n):
        dist = exact_average(support(), make_initial_state(init), n)
        law = np.array([binomial_law(n, k) for k in dist.sites()])
        assert np.max(np.abs(dist.probs - law)) <= 1e-12

    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("init", ["caseI", (0.6, 0.8j)], ids=str)
    @pytest.mark.parametrize("sigma, n", [(0.3, 10), (1.0, 16)])
    def test_shapira_monte_carlo_agrees_with_its_support(self, sigma, n, init, seed):
        rule = make_initial_state(init)
        exact = exact_average(shapira_support(sigma), rule, n)
        average = monte_carlo_average(make_shapira(sigma), rule, n, 20_000, seed)
        assert np.all(average.stderr > 0)
        z = np.abs(average.mean_distribution.probs - exact.probs) / average.stderr
        assert np.max(z) <= 5
