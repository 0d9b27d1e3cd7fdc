"""Coin ensemble catalog, moment audits, and initial-state rules."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dqwalk
from dqwalk import (
    CASE_I_DEFAULT,
    HADAMARD,
    CoinEnsemble,
    InitialStateRule,
    audit_moments,
    make_fixed,
    make_initial_state,
    make_mackay,
    make_ribeiro_two_point,
    make_ribeiro_uniform,
    make_shapira,
    mu_shapira,
    rotation_coin,
    shapira_coin,
    substream,
    validate_coin,
)
from dqwalk.ensembles import (
    _AUDIT_CHUNK,
    _MOMENT_NAMES,
    MomentReport,
    _combine,
    _flag,
)

SQRT3_HALF = math.sqrt(3.0) / 2.0

CATALOG = [
    make_ribeiro_uniform,
    lambda: make_ribeiro_two_point(0.3),
    make_mackay,
    lambda: make_shapira(0.7),
    make_fixed,
]


class TestRibeiroUniform:
    def test_zero_angle_coin(self):
        coin = rotation_coin(0.0)
        assert (coin.a, coin.b, coin.c, coin.d) == (1 + 0j, 0j, 0j, -1 + 0j)

    def test_sampled_angle_moments(self):
        rows = make_ribeiro_uniform().sample_batch(substream(12), 10**6)
        cos = rows[:, 0].real
        sin = rows[:, 1].real
        assert abs((cos**2).mean() - 0.5) <= 1.5e-3
        assert abs((cos * sin).mean()) <= 3e-3

    def test_coins_are_exactly_real(self):
        rows = make_ribeiro_uniform().sample_batch(substream(1), 1000)
        assert np.all(rows.imag == 0.0)


class TestRibeiroTwoPoint:
    def test_xi_zero_support(self):
        support = make_ribeiro_two_point(0.0).finite_support
        (c0, w0), (c1, w1) = support
        assert (w0, w1) == (0.5, 0.5)
        assert c0 == rotation_coin(0.0)
        assert c1 == rotation_coin(math.pi / 2)
        assert (c0.a, c0.b, c0.c, c0.d) == (1 + 0j, 0j, 0j, -1 + 0j)

    def test_xi_quarter_pi_entries(self):
        h = 1.0 / math.sqrt(2.0)
        for coin, _ in make_ribeiro_two_point(math.pi / 4).finite_support:
            for entry in (coin.a, coin.b, coin.c, coin.d):
                assert abs(abs(entry) - h) < 1e-15

    @pytest.mark.parametrize("xi", [0.0, 0.4, math.pi / 4, 1.0, 3.0])
    def test_exact_balance_for_any_xi(self, xi):
        report = audit_moments(make_ribeiro_two_point(xi), draws=1)
        assert report.exact
        assert report.estimates["abs_a_sq"] == pytest.approx(0.5, abs=1e-15)
        assert abs(report.estimates["a_conj_c"]) <= 1e-15

    @pytest.mark.parametrize("xi", [-0.1, math.pi, 4.0])
    def test_domain_error(self, xi):
        with pytest.raises(ValueError):
            make_ribeiro_two_point(xi)


class TestMackay:
    def test_zero_phase_is_hadamard(self):
        coin = make_mackay(lambda rng: 0.0).sample(substream(0))
        assert coin == HADAMARD

    def test_uniform_phase_mean_vanishes(self):
        rows = make_mackay().sample_batch(substream(5), 10**6)
        mean_phase = (rows[:, 1] * math.sqrt(2.0)).mean()
        assert abs(mean_phase.real) <= 3e-3
        assert abs(mean_phase.imag) <= 3e-3

    def test_all_entries_have_modulus_inv_sqrt2(self):
        rows = make_mackay().sample_batch(substream(6), 1000)
        h = 1.0 / math.sqrt(2.0)
        assert np.all(np.abs(np.abs(rows) - h) < 1e-15)

    def test_degenerate_phase_violates_cross_condition(self):
        report = audit_moments(make_mackay(lambda rng: 0.0), draws=5000, seed=2)
        assert report.eq_balance == "satisfied"
        assert report.eq_cross == "violated"


class TestShapira:
    def test_zero_kick_is_exactly_hadamard(self):
        assert shapira_coin(0.0, 0.0, 0.0) == HADAMARD

    def test_series_branch_agrees_with_direct_near_cutoff(self):
        # rebuilding the coin with sin(r)/r replaced by its quadratic
        # series must agree with the direct evaluation at kick norm 1e-6,
        # so switching branches at 1e-8 cannot introduce a jump
        direction = np.array([0.6, -0.48, 0.64])
        x, y, z = 1e-6 * direction / np.linalg.norm(direction)
        r = math.sqrt(x * x + y * y + z * z)
        h = 1.0 / math.sqrt(2.0)
        variants = []
        for s in (math.sin(r) / r, 1.0 - r * r / 6.0):
            v11 = math.cos(r) + 1j * z * s
            v12 = (y + 1j * x) * s
            v21 = (-y + 1j * x) * s
            v22 = math.cos(r) - 1j * z * s
            variants.append(
                ((v11 + v21) * h, (v12 + v22) * h, (v11 - v21) * h, (v12 - v22) * h)
            )
        direct, series = variants
        for lo, hi in zip(direct, series):
            assert abs(lo - hi) < 1e-10
        coin = shapira_coin(x, y, z)
        for built, expected in zip((coin.a, coin.b, coin.c, coin.d), direct):
            assert abs(built - expected) < 1e-15

    def test_sampled_coins_are_unitary(self):
        ensemble = make_shapira(SQRT3_HALF)
        rng = substream(8)
        for _ in range(200):
            assert validate_coin(ensemble.sample(rng)).ok

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_domain_errors(self, sigma):
        with pytest.raises(ValueError):
            make_shapira(sigma)
        with pytest.raises(ValueError):
            mu_shapira(sigma)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            make_shapira(sigma)
        with pytest.raises(ValueError, match="finite"):
            mu_shapira(sigma)


class TestMuShapira:
    def test_value_at_the_minimum(self):
        assert 0.0175 <= mu_shapira(SQRT3_HALF) <= 0.0185

    def test_small_sigma_limit(self):
        assert mu_shapira(1e-6) == pytest.approx(0.5, abs=1e-9)

    def test_sqrt3_half_minimizes_over_grid(self):
        grid = [round(0.01 * i, 2) for i in range(1, 501)]
        best = mu_shapira(SQRT3_HALF)
        assert all(best <= mu_shapira(sigma) for sigma in grid)


def eager_moment_values(rows):
    a, b, c, d = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    return np.stack(
        [
            a.real**2 + a.imag**2,
            b.real**2 + b.imag**2,
            c.real**2 + c.imag**2,
            d.real**2 + d.imag**2,
            a * np.conj(c),
            b * np.conj(d),
        ],
        axis=1,
    ).astype(np.complex128)


def eager_audit_moments(ensemble, draws, seed=0):
    """`audit_moments` forming each chunk's (chunk, 6) values whole: the
    reference for the bits of the piecewise sums."""
    if ensemble.finite_support is not None:
        rows = np.array([[c.a, c.b, c.c, c.d] for c, _ in ensemble.finite_support])
        weights = np.array([w for _, w in ensemble.finite_support])
        means = weights @ eager_moment_values(rows)
        estimates = {name: complex(means[i]) for i, name in enumerate(_MOMENT_NAMES)}
        stderrs = {name: 0.0 for name in _MOMENT_NAMES}
        exact = True
    else:
        rng = substream(seed)
        total = np.zeros(len(_MOMENT_NAMES), dtype=np.complex128)
        total_sq = np.zeros((len(_MOMENT_NAMES), 2), dtype=np.float64)
        remaining = draws
        while remaining > 0:
            chunk = min(remaining, _AUDIT_CHUNK)
            values = eager_moment_values(ensemble.sample_batch(rng, chunk))
            total += values.sum(axis=0)
            total_sq[:, 0] += (values.real**2).sum(axis=0)
            total_sq[:, 1] += (values.imag**2).sum(axis=0)
            remaining -= chunk
        means = total / draws
        estimates = {name: complex(means[i]) for i, name in enumerate(_MOMENT_NAMES)}
        stderrs = {}
        for i, name in enumerate(_MOMENT_NAMES):
            if draws < 2:
                stderrs[name] = 0.0
                continue
            var_re = max(total_sq[i, 0] - draws * means[i].real ** 2, 0.0) / (draws - 1)
            var_im = max(total_sq[i, 1] - draws * means[i].imag ** 2, 0.0) / (draws - 1)
            stderrs[name] = math.sqrt((var_re + var_im) / draws)
        exact = False
    eq_balance = _combine(
        _flag(abs(estimates["abs_a_sq"] - 0.5), stderrs["abs_a_sq"], draws, exact),
        _flag(abs(estimates["abs_b_sq"] - 0.5), stderrs["abs_b_sq"], draws, exact),
    )
    eq_cross = _flag(abs(estimates["a_conj_c"]), stderrs["a_conj_c"], draws, exact)
    return MomentReport(
        ensemble=ensemble.name, draws=draws, exact=exact, estimates=estimates,
        stderrs=stderrs, eq_balance=eq_balance, eq_cross=eq_cross,
        declared=ensemble.declared_moments,
    )


class TestAuditMoments:
    def test_ribeiro_uniform_satisfies_both_conditions(self):
        report = audit_moments(make_ribeiro_uniform(), draws=10**6, seed=3)
        assert report.eq_balance == "satisfied"
        assert report.eq_cross == "satisfied"

    @pytest.mark.parametrize("sigma", [0.3, SQRT3_HALF, 2.0])
    def test_shapira_violates_cross_condition(self, sigma):
        report = audit_moments(make_shapira(sigma), draws=200_000, seed=11)
        assert report.eq_balance == "satisfied"
        assert report.eq_cross == "violated"
        estimate = report.estimates["a_conj_c"]
        stderr = report.stderrs["a_conj_c"]
        assert abs(estimate - mu_shapira(sigma)) <= 4.0 * stderr

    def test_two_point_report_is_exact(self):
        report = audit_moments(make_ribeiro_two_point(math.pi / 4), draws=1)
        assert report.exact
        assert report.stderrs["a_conj_c"] == 0.0
        assert report.estimates["abs_a_sq"] == pytest.approx(0.5, abs=1e-15)

    def test_fixed_hadamard_cross_moment(self):
        report = audit_moments(make_fixed(), draws=1)
        assert report.exact
        assert report.eq_balance == "satisfied"
        assert report.eq_cross == "violated"
        assert report.estimates["a_conj_c"] == pytest.approx(0.5, abs=1e-15)

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError):
            audit_moments(make_ribeiro_uniform(), draws=0)

    def test_tiny_sample_is_inconclusive(self):
        report = audit_moments(make_ribeiro_uniform(), draws=10, seed=0)
        assert report.eq_balance == "inconclusive"

    @pytest.mark.parametrize("draws", [1, 100, 100_000, 2**20 + 5])
    @pytest.mark.parametrize("factory", CATALOG)
    def test_equals_whole_chunk_audit(self, factory, draws):
        # Pieces reduced with the running sum carried in must give the
        # bits of whole-chunk sums; 2**20 + 5 spans two sampling chunks.
        ensemble = factory()
        report = audit_moments(ensemble, draws, seed=13)
        eager = eager_audit_moments(ensemble, draws, seed=13)
        assert report == eager
        assert json.dumps(report.to_json_dict()) == json.dumps(eager.to_json_dict())

    def test_memory_stays_below_whole_chunk_values(self):
        # Whole-chunk values take 25.6 MB at 100000 draws: the coins, a
        # stacked value array and its complex copy.
        tracemalloc.start()
        try:
            audit_moments(make_ribeiro_uniform(), draws=100_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20


class TestCatalogContracts:
    @pytest.mark.parametrize("factory", CATALOG)
    def test_sampled_coins_pass_validation(self, factory):
        ensemble = factory()
        rows = ensemble.sample_batch(substream(21), 2000)
        from dqwalk import Coin

        for row in rows[:: max(1, len(rows) // 200)]:
            assert validate_coin(Coin(*map(complex, row))).ok
        # vectorized residual check over the full batch
        a, b, c, d = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        assert np.abs(np.abs(a) ** 2 + np.abs(c) ** 2 - 1).max() < 1e-12
        assert np.abs(a * np.conj(c) + b * np.conj(d)).max() < 1e-12

    @pytest.mark.parametrize("factory", CATALOG)
    def test_batch_equals_sequence_of_single_draws(self, factory):
        ensemble = factory()
        batch = ensemble.sample_batch(substream(33), 16)
        rng = substream(33)
        singles = np.array(
            [[c.a, c.b, c.c, c.d] for c in (ensemble.sample(rng) for _ in range(16))]
        )
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("factory", CATALOG)
    def test_same_seed_same_coins(self, factory):
        ensemble = factory()
        first = ensemble.sample_batch(substream(77, 4, 0), 10)
        second = ensemble.sample_batch(substream(77, 4, 0), 10)
        assert np.array_equal(first, second)


class TestFiniteSupport:
    @pytest.mark.parametrize(
        "support",
        [
            (),
            ((HADAMARD, math.nan),),
            ((HADAMARD, math.inf),),
            ((HADAMARD, 1.5), (rotation_coin(0.3), -0.5)),
        ],
        ids=["empty", "nan", "inf", "negative"],
    )
    def test_malformed_support_rejected(self, support):
        # A NaN weight passes the sum-to-one check (abs(nan - 1) > eps is
        # False), and (1.5, -0.5) sums to one exactly.
        with pytest.raises(ValueError, match="finite support"):
            CoinEnsemble(name="bad", draw_parameters=None, finite_support=support)

    def test_zero_weight_accepted(self):
        support = ((HADAMARD, 1.0), (rotation_coin(0.3), 0.0))
        ensemble = CoinEnsemble(name="zero", draw_parameters=None, finite_support=support)
        assert ensemble.finite_support == support


class TestInitialStates:
    def test_case_i_default_is_balanced(self):
        phi = make_initial_state("caseI").draw()
        assert phi == CASE_I_DEFAULT
        balance = phi.alpha * phi.beta.conjugate() + phi.alpha.conjugate() * phi.beta
        assert balance == 0

    def test_case_ii_sample_moments(self):
        rule = make_initial_state("caseII")
        states = rule.draw_batch(substream(9), 10**6)
        alpha, beta = states[:, 0], states[:, 1]
        assert abs((np.abs(alpha) ** 2).mean() - 0.5) <= 3e-3
        assert abs((alpha * np.conj(beta)).mean()) <= 3e-3
        norms = np.abs(alpha) ** 2 + np.abs(beta) ** 2
        assert np.abs(norms - 1).max() < 1e-12

    def test_fixed_custom_state(self):
        rule = make_initial_state((1, 0))
        assert rule.kind == "fixed"
        assert rule.case_label == "none"
        assert rule.draw().alpha == 1 + 0j

    def test_fixed_rejects_non_unit_norm(self):
        with pytest.raises(ValueError):
            make_initial_state((1, 1))

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            make_initial_state("caseIII")

    def test_random_rule_requires_generator(self):
        with pytest.raises(ValueError):
            make_initial_state("caseII").draw()

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "fixed", "case_label": "none"},
            {"kind": "random", "case_label": "case_ii"},
            {"kind": "mixed", "case_label": "none", "state": CASE_I_DEFAULT},
        ],
        ids=["fixed_without_state", "random_without_draw", "unknown_kind"],
    )
    def test_malformed_rule_rejected(self, fields):
        with pytest.raises(ValueError):
            InitialStateRule(**fields)

    def test_malformed_rule_rejected_in_optimized_mode(self):
        # Under -O every assert is stripped; construction must still raise.
        program = (
            "from dqwalk import InitialStateRule\n"
            "try:\n"
            "    InitialStateRule(kind='fixed', case_label='none')\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    raise SystemExit('malformed rule accepted')\n"
        )
        src = str(Path(dqwalk.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", program],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "needs a state" in proc.stdout


class TestStreams:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            substream(-1)

    def test_distinct_paths_give_distinct_streams(self):
        a = substream(5, 0, 0).random(4)
        b = substream(5, 1, 0).random(4)
        assert not np.array_equal(a, b)
