"""Coin ensemble catalog, moment audits, and initial-state rules."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dqwalk
from conftest import shapira_coin
from dqwalk import (
    CASE_I_DEFAULT,
    HADAMARD,
    Coin,
    CoinEnsemble,
    InitialStateRule,
    QubitState,
    audit_moments,
    make_fixed,
    make_initial_state,
    make_mackay,
    make_ribeiro_two_point,
    make_ribeiro_uniform,
    make_shapira,
    mu_shapira,
    rotation_coin,
    substream,
    validate_coin,
)
from dqwalk import ensembles
from dqwalk.ensembles import (
    _MOMENT_NAMES,
    MomentReport,
    _combine,
    _flag,
)

SQRT3_HALF = math.sqrt(3.0) / 2.0

#: Not unitary: it keeps the top row and drops the bottom one.
PROJECTOR = Coin(1, 0, 0, 0)


def _zero_phase_coins(rng: np.random.Generator, size: int) -> np.ndarray:
    """Phase coins at the constant phase 0, a law whose cross moment is 1/2."""
    return ensembles._phase_parameters(np.zeros(size))


#: A custom phase law: a plain `CoinEnsemble` that declares no moment.
ZERO_PHASE = CoinEnsemble(name="mackay_zero_phase", draw_parameters=_zero_phase_coins)

def _pauli_x_coins(rng: np.random.Generator, size: int) -> np.ndarray:
    """The coin [[0, 1], [1, 0]] every draw: its moment values are exact in
    floating point, so a sampled audit of it has standard errors of 0."""
    return np.tile(np.array([0, 1, 1, 0], dtype=np.complex128), (size, 1))


#: A constant law that only a sampled audit sees as constant.
PAULI_X = CoinEnsemble(name="pauli_x", draw_parameters=_pauli_x_coins)

#: A real-coin and a complex-coin ensemble without finite support.
SAMPLED_AUDITS = pytest.mark.parametrize(
    "factory", [make_ribeiro_uniform, lambda: make_shapira(0.3)],
    ids=["ribeiro_uniform", "shapira"],
)

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
        coin = Coin(*map(complex, ZERO_PHASE.sample_batch(substream(0), 1)[0]))
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
        report = audit_moments(ZERO_PHASE, draws=5000, seed=2)
        assert report.eq_balance == "satisfied"
        assert report.eq_cross == "violated"

    def test_undeclared_moment_writes_no_key(self):
        assert "declared_a_conj_c" not in audit_moments(ZERO_PHASE, draws=5000).to_json_dict()
        declared = audit_moments(make_mackay(), draws=5000).to_json_dict()
        assert declared["declared_a_conj_c"] == [0.0, 0.0]


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
            assert validate_coin(Coin(*map(complex, ensemble.sample_batch(rng, 1)[0]))).ok

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
            np.multiply(np.conj(c), a),
            np.multiply(np.conj(d), b),
        ],
        axis=1,
    ).astype(np.complex128)


def eager_audit_moments(ensemble, draws, seed=0):
    """`audit_moments` forming all the draws' (draws, 6) values at once and
    summing them whole: the reference for the bits of the piecewise sums."""
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
        values = eager_moment_values(ensemble.sample_batch(rng, draws))
        total += values.sum(axis=0)
        total_sq[:, 0] += (values.real**2).sum(axis=0)
        total_sq[:, 1] += (values.imag**2).sum(axis=0)
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
        declared_a_conj_c=ensemble.declared_a_conj_c,
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

    @pytest.mark.parametrize("draws", [1, 2, 99])
    def test_sample_under_the_minimum_is_inconclusive(self, draws):
        # One draw has a standard error of 0, which must not turn the
        # exact 1e-12 rule on; nor must a constant law's zero spread.
        for ensemble in (make_ribeiro_uniform(), PAULI_X):
            report = audit_moments(ensemble, draws=draws, seed=0)
            assert (report.eq_balance, report.eq_cross) == ("inconclusive", "inconclusive")

    def test_zero_spread_at_the_minimum_is_exact(self):
        # E(a conj c) = 0 with a standard error of 0 passes only by the
        # exact rule; E|a|^2 = 0 is 1/2 away from balance.
        report = audit_moments(PAULI_X, draws=100, seed=0)
        assert set(report.stderrs.values()) == {0.0}
        assert (report.eq_balance, report.eq_cross) == ("violated", "satisfied")

    @pytest.mark.parametrize("draws", [1, 100, 16383, 16384, 100_000, 2**20 + 5])
    @pytest.mark.parametrize("factory", CATALOG)
    def test_equals_whole_chunk_audit(self, factory, draws):
        # Pieces reduced with the running sum carried in must give the
        # bits of one sum over all the draws' values.  16383 and 16384 sit
        # either side of the size at which numpy elides the temporary of
        # `a * np.conj(c)`, which would swap the product's operands.
        ensemble = factory()
        report = audit_moments(ensemble, draws, seed=13)
        eager = eager_audit_moments(ensemble, draws, seed=13)
        assert report == eager
        assert json.dumps(report.to_json_dict()) == json.dumps(eager.to_json_dict())

    @SAMPLED_AUDITS
    def test_piece_size_is_not_part_of_the_bits(self, factory, monkeypatch):
        documents = set()
        for piece in (1, 7, 4096):
            monkeypatch.setattr(ensembles, "_AUDIT_PIECE", piece)
            report = audit_moments(factory(), draws=20_000, seed=5)
            documents.add(json.dumps(report.to_json_dict()))
        assert len(documents) == 1

    @SAMPLED_AUDITS
    def test_memory_does_not_grow_with_draws(self, factory):
        # Drawing all 2**20 + 5 coins at once would take 16 MiB for the
        # coins alone and about 100 MiB (ribeiro_uniform) or 200 MiB
        # (shapira) at its peak; pieces of 4096 coins need under 2 MiB.
        ensemble = factory()
        tracemalloc.start()
        try:
            audit_moments(ensemble, draws=2**20 + 5, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


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
        singles = np.concatenate([ensemble.sample_batch(rng, 1) for _ in range(16)])
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

    def test_zero_weight_coins_are_never_drawn(self):
        # Zero weights first, between and last; the edge uniforms sit on
        # both sides of every cumulative weight.
        support = (
            (rotation_coin(0.1), 0.0), (HADAMARD, 0.5), (rotation_coin(0.2), 0.0),
            (rotation_coin(0.3), 0.5), (rotation_coin(0.4), 0.0),
        )
        ensemble = CoinEnsemble(name="zero", finite_support=support)
        u = uniforms_with_edges(4)
        drawn = ensemble.draw_parameters.transform(u)
        picked = np.where(u < 0.5, 1, 3)
        expected = np.array([[c.a, c.b, c.c, c.d] for c, _ in support])[picked]
        assert np.array_equal(bits(drawn), bits(expected))

    def test_sampler_and_support_together_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            CoinEnsemble(
                name="both", draw_parameters=make_ribeiro_uniform().draw_parameters,
                finite_support=((HADAMARD, 1.0),),
            )

    def test_neither_sampler_nor_support_rejected(self):
        with pytest.raises(ValueError, match="needs draw_parameters or a finite_support"):
            CoinEnsemble(name="neither")

    @pytest.mark.parametrize(
        "support, index",
        [(((PROJECTOR, 1.0),), 0), (((HADAMARD, 0.5), (PROJECTOR, 0.5)), 1)],
        ids=["alone", "mixed"],
    )
    def test_non_unitary_coin_rejected(self, support, index):
        # Alone, the projector walks the state (1, 0) to a point mass at -n
        # without losing norm, so no drift check downstream would catch it.
        message = f"support coin {index} is not unitary: failed ['norm_bd', 'det_modulus']"
        with pytest.raises(ValueError, match=re.escape(message)):
            CoinEnsemble(name="projector", finite_support=support)


def uniforms_with_edges(seed: int) -> np.ndarray:
    """Uniforms of a stream after the values at and next to 0, 1/2 and 1."""
    edges = [0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]
    return np.concatenate([edges, substream(seed).random(4096)])


def bits(rows: np.ndarray) -> np.ndarray:
    """The bits of complex rows, in row order whatever their memory order."""
    return np.ascontiguousarray(rows).view(np.uint64)


def two_point_oracle(u: np.ndarray, xi: float) -> np.ndarray:
    """The two-point draw written from its angles: the reference for the
    draw derived from the support."""
    return ensembles._rotation_parameters(np.where(u < 0.5, xi, xi + 0.5 * math.pi))


def fixed_oracle(u: np.ndarray, coin) -> np.ndarray:
    """u.size copies of `coin`, filled column by column."""
    out = np.empty((u.size, 4), dtype=np.complex128)
    out[:, 0] = coin.a
    out[:, 1] = coin.b
    out[:, 2] = coin.c
    out[:, 3] = coin.d
    return out


class TestDerivedDraws:
    """A finite ensemble's draw, derived from its support, keeps the bits of
    the formulas that drew the catalog's finite ensembles before."""

    @settings(max_examples=50, deadline=None)
    @given(xi=st.floats(0.0, math.pi, exclude_max=True), seed=st.integers(0, 2**64 - 1))
    @example(xi=0.7854, seed=0)
    @example(xi=math.pi / 2, seed=1)
    def test_two_point_keeps_the_angle_formula_bits(self, xi, seed):
        ensemble = make_ribeiro_two_point(xi)
        u = uniforms_with_edges(seed)
        got = ensemble.draw_parameters.transform(u)
        assert np.array_equal(bits(got), bits(two_point_oracle(u, xi)))
        sampled = ensemble.sample_batch(substream(seed), 100)
        expected = two_point_oracle(substream(seed).random(100), xi)
        assert np.array_equal(bits(sampled), bits(expected))

    @pytest.mark.parametrize(
        "coin", [HADAMARD, rotation_coin(0.3), shapira_coin(0.1, -0.2, 0.3)], ids=repr
    )
    def test_fixed_keeps_the_column_fill_bits(self, coin):
        u = uniforms_with_edges(9)
        got = make_fixed(coin).draw_parameters.transform(u)
        assert np.array_equal(bits(got), bits(fixed_oracle(u, coin)))


def rotation_rows_oracle(u: np.ndarray) -> np.ndarray:
    """ribeiro_uniform's rows as they were written before, column by column
    into (size, 4) rows."""
    theta = 0.0 + 2.0 * math.pi * u
    cos, sin = np.cos(theta), np.sin(theta)
    out = np.empty((u.size, 4), dtype=np.complex128)
    out[:, 0] = cos
    out[:, 1] = sin
    out[:, 2] = sin
    out[:, 3] = -cos
    return out


def phase_rows_oracle(u: np.ndarray) -> np.ndarray:
    """mackay_uniform's rows as they were written before, from e^{i t}."""
    h = 1.0 / math.sqrt(2.0)
    phase = np.exp(1j * (0.0 + 2.0 * math.pi * u))
    out = np.empty((u.size, 4), dtype=np.complex128)
    out[:, 0] = h
    out[:, 1] = phase * h
    out[:, 2] = np.conj(phase) * h
    out[:, 3] = -h
    return out


def phase_state_rows_oracle(u: np.ndarray) -> np.ndarray:
    """caseII's (size, 2) rows as they were written before."""
    theta = 0.0 + 2.0 * math.pi * u
    out = np.empty((u.size, 2), dtype=np.complex128)
    out[:, 0] = np.cos(theta)
    out[:, 1] = np.sin(theta)
    return out


#: Five coins with zero weights first, between and last.
ZERO_WEIGHT_SUPPORT = (
    (rotation_coin(0.1), 0.0), (HADAMARD, 0.25), (rotation_coin(0.2), 0.0),
    (shapira_coin(0.1, -0.2, 0.3), 0.75), (rotation_coin(0.4), 0.0),
)


def support_rows_oracle(support):
    """A finite support's rows as they were taken before, row by row."""

    def rows(u: np.ndarray) -> np.ndarray:
        entries = np.array([[c.a, c.b, c.c, c.d] for c, _ in support], dtype=np.complex128)
        weights = np.array([w for _, w in support])
        edges = np.cumsum(weights[: np.flatnonzero(weights)[-1]])
        return entries.take(np.searchsorted(edges, u, side="right"), axis=0)

    return rows


class TestCatalogTransformBits:
    """The catalog's transforms write their rows plane by plane, and keep the
    bits of the row formulas they had before (kept here as oracles)."""

    DRAWS = {
        "ribeiro_uniform": (lambda: make_ribeiro_uniform().draw_parameters, rotation_rows_oracle),
        "mackay_uniform": (lambda: make_mackay().draw_parameters, phase_rows_oracle),
        "caseII": (
            lambda: make_initial_state("caseII").draw_parameters, phase_state_rows_oracle
        ),
        "zero_weight_support": (
            lambda: CoinEnsemble(name="zero", finite_support=ZERO_WEIGHT_SUPPORT).draw_parameters,
            support_rows_oracle(ZERO_WEIGHT_SUPPORT),
        ),
    }

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(DRAWS)), seed=st.integers(0, 2**64 - 1))
    @example(name="mackay_uniform", seed=0)
    def test_rows_keep_the_row_formula_bits(self, name, seed):
        # The edge uniforms come first: u = 0 gives c's imaginary part +0.0
        # in the phase coins, where a negation would give -0.0.
        make_draw, oracle = self.DRAWS[name]
        u = uniforms_with_edges(seed)
        got = make_draw().transform(u)
        want = oracle(u)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(bits(got), bits(want))

    def test_rows_are_column_major(self):
        for make_draw, _ in self.DRAWS.values():
            assert make_draw().transform(np.linspace(0.0, 0.9, 7)).flags.f_contiguous


class TestFixed:
    def test_hadamard_keeps_its_name(self):
        assert make_fixed().config() == {"ensemble": "fixed_hadamard", "params": {}}
        assert make_fixed(HADAMARD).config() == make_fixed().config()

    def test_other_coins_record_their_entries(self):
        assert make_fixed(Coin(0.6, 0.8j, 0.8j, 0.6)).config() == {
            "ensemble": "fixed",
            "params": {
                "a_real": 0.6, "a_imag": 0.0, "b_real": 0.0, "b_imag": 0.8,
                "c_real": 0.0, "c_imag": 0.8, "d_real": 0.6, "d_imag": 0.0,
            },
        }
        assert make_fixed(rotation_coin(0.3)).config() != make_fixed(rotation_coin(0.4)).config()

    def test_non_unitary_coin_rejected(self):
        with pytest.raises(ValueError, match="support coin 0 is not unitary"):
            make_fixed(PROJECTOR)


class TestInitialStates:
    def test_case_i_default_is_balanced(self):
        phi = make_initial_state("caseI").state
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
        assert rule == InitialStateRule(state=QubitState(1, 0))
        assert rule.draw_parameters is None
        assert rule.state.alpha == 1 + 0j

    def test_record_is_read_off_the_state(self):
        # A fixed rule records its own state, never a caseI it was not given.
        assert InitialStateRule(state=QubitState(1, 0)).config() == [[1.0, 0.0], [0.0, 0.0]]
        assert InitialStateRule(state=CASE_I_DEFAULT).config() == "caseI"
        written_out = make_initial_state("0.7071067811865475,0.7071067811865475j")
        assert written_out.config() == "caseI"

    @pytest.mark.parametrize(
        "spec",
        ["0.7071067811865475-0j,0.7071067811865475j", "0.7071067811865475,-0+0.7071067811865475j"],
    )
    def test_signed_zero_keeps_its_pair(self, spec):
        # Equal to (1, i)/sqrt 2 under `==`, but not bit for bit, so the
        # record must keep the pair for the config to rebuild the bits.
        rule = make_initial_state(spec)
        assert rule.state == CASE_I_DEFAULT
        assert isinstance(rule.config(), list)
        again = make_initial_state(json.loads(json.dumps(rule.config())))
        bits = [np.array([s.alpha, s.beta]).view(np.uint64) for s in (rule.state, again.state)]
        assert np.array_equal(*bits)

    def test_record_is_read_off_the_draw(self):
        draw = ensembles.UniformDraw(ensembles._uniform_phase_states)
        case_ii = InitialStateRule(draw_parameters=draw)
        assert case_ii.config() == "caseII"
        same_draws = InitialStateRule(draw_parameters=partial(case_ii.draw_parameters))
        assert same_draws.config() == "custom_random"

    def test_fixed_rejects_non_unit_norm(self):
        with pytest.raises(ValueError):
            make_initial_state((1, 1))

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            make_initial_state("caseIII")

    @pytest.mark.parametrize(
        "spec", [[True, False], (1, False), [[True, 0], [0, 0]], [[1, 0], [0, False]]], ids=repr
    )
    def test_booleans_are_not_numbers(self, spec):
        # JSON's true and false would otherwise read as 1 and 0.
        with pytest.raises(TypeError, match="boolean"):
            make_initial_state(spec)

    def test_custom_random_rule_has_no_spelling(self):
        draw = make_initial_state("caseII").draw_parameters
        rule = InitialStateRule(draw_parameters=partial(draw))
        assert rule.config() == "custom_random"
        with pytest.raises(ValueError):
            make_initial_state(rule.config())

    @pytest.mark.parametrize(
        "spec",
        ["0.6,0.8j", " 0.6 , 0.8j ", [[0.6, 0], [0, 0.8]], ["0.6", "0.8j"], (0.6, 0.8j),
         [0.6, [0, 0.8]], QubitState(0.6, 0.8j)],
        ids=repr,
    )
    def test_every_fixed_spelling(self, spec):
        # The CLI's text and every pair a config file can hold.
        rule = make_initial_state(spec)
        assert rule == InitialStateRule(state=QubitState(0.6, 0.8j))
        assert rule.config() == [[0.6, 0.0], [0.0, 0.8]]

    @given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    def test_config_round_trip_keeps_the_state_bits(self, t, u, v):
        rule = make_initial_state((math.cos(t) * complex(math.cos(u), math.sin(u)),
                                   math.sin(t) * complex(math.cos(v), math.sin(v))))
        again = make_initial_state(json.loads(json.dumps(rule.config())))
        bits = [np.array([s.alpha, s.beta]).view(np.uint64) for s in (rule.state, again.state)]
        assert np.array_equal(*bits)

    @pytest.mark.parametrize(
        "spec, name",
        [("caseI", "caseI"), ("CASEI", "caseI"), (" case_i ", "caseI"), ("caseI_default", "caseI"),
         ("caseII", "caseII"), ("case_ii", "caseII"), ("caseII_uniform_phase", "caseII")],
    )
    def test_case_aliases_round_trip(self, spec, name):
        rule = make_initial_state(spec)
        assert rule.config() == name
        again = make_initial_state(name)
        assert again == rule
        assert np.array_equal(again.draw_batch(substream(3), 8), rule.draw_batch(substream(3), 8))

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("caseIII", "fixed initial state must be 'alpha,beta', got 'caseIII'"),
            ("1,2,3", "fixed initial state must be 'alpha,beta', got '1,2,3'"),
            ("1,x", "cannot parse initial state '1,x'"),
            (5, "cannot interpret initial-state spec 5"),
            ([1, 0, 0], "cannot interpret initial-state spec [1, 0, 0]"),
            ({"alpha": 1, "beta": 0}, "cannot interpret initial-state spec {'alpha': 1, 'beta': 0}"),
            (None, "cannot interpret initial-state spec None"),
        ],
        ids=repr,
    )
    def test_malformed_spec_messages(self, spec, message):
        with pytest.raises(ValueError) as info:
            make_initial_state(spec)
        assert str(info.value) == message

    def test_random_rule_requires_generator(self):
        with pytest.raises(ValueError):
            make_initial_state("caseII").draw_batch(None, 1)

    @pytest.mark.parametrize(
        "fields",
        [{}, {"state": CASE_I_DEFAULT, "draw_parameters": ensembles._CASE_II_DRAW}],
        ids=["neither_field", "both_fields"],
    )
    def test_malformed_rule_rejected(self, fields):
        with pytest.raises(ValueError, match="needs a state or draw_parameters, not both"):
            InitialStateRule(**fields)

    def test_malformed_rule_rejected_in_optimized_mode(self):
        # Under -O every assert is stripped; construction must still raise.
        program = (
            "from dqwalk import InitialStateRule\n"
            "try:\n"
            "    InitialStateRule()\n"
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
