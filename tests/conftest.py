"""Shared test helpers: generic random unitary coins, a recording process pool,
the kernel's sub-block rows, and two oracles, the one-row split of a coin
and the perturbed Hadamard coin of one explicit kick vector."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import dqwalk.stats
from dqwalk import EPS_UNIT, Coin, CoinEnsemble, validate_coin
from dqwalk.engine import DIAGONAL_WORKSET, Q_MIN, WORKSET
from dqwalk.ensembles import _su2_kick_parameters


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """The max_workers of every process pool that `monte_carlo_average` builds."""
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(dqwalk.stats, "ProcessPoolExecutor", RecordingPool)
    return sizes


def _draw_haar(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar-random 2x2 unitaries via QR of complex Ginibre matrices."""
    z = (rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * np.exp(-1j * np.angle(diag))[:, None, :]
    out = np.empty((size, 4), dtype=np.complex128)
    out[:, 0] = q[:, 0, 0]
    out[:, 1] = q[:, 0, 1]
    out[:, 2] = q[:, 1, 0]
    out[:, 3] = q[:, 1, 1]
    return out


def diagonal_rows(n: int) -> int:
    """Trials per sub-block of `_evolve_block`'s diagonal loop over n coins."""
    return max(8, DIAGONAL_WORKSET // (16 * (8 * (n + 1) + 2 * (n // 2 + 1))))


def kernel_rows(n: int, trials: int) -> int:
    """Trials per sub-block of `_evolve_block` over n coins from the origin."""
    if trials >= 2 and n >= Q_MIN:
        return min(trials, diagonal_rows(n))
    return max(1, min(trials, max(8, WORKSET // (64 * (n + 1)))))


def make_haar() -> CoinEnsemble:
    """A user-defined ensemble, exercising the non-catalog constructor path."""
    return CoinEnsemble(name="haar", draw_parameters=_draw_haar)


def haar_coin(rng: np.random.Generator) -> Coin:
    return Coin(*map(complex, make_haar().sample_batch(rng, 1)[0]))


def haar_coins(rng: np.random.Generator, count: int) -> list[Coin]:
    return [Coin(*map(complex, row)) for row in _draw_haar(rng, count)]


def make_haar_mixture(seed: int, weights) -> CoinEnsemble:
    """A finite ensemble of len(weights) Haar coins, given by its support alone."""
    coins = haar_coins(np.random.default_rng(seed), len(weights))
    return CoinEnsemble(name="haar_mixture", finite_support=tuple(zip(coins, weights)))


def split_coin(coin: Coin) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a valid coin U into its (P, Q, R, S) one-row matrices.

    P + Q = U; P carries the top row (left mover) and Q the bottom row
    (right mover).  R and S swap the rows into the opposite slots.

    Raises
    ------
    ValueError
        If the coin fails `validate_coin`.
    """
    report = validate_coin(coin)
    if not report.ok:
        raise ValueError(f"coin is not unitary within {EPS_UNIT}: failed {report.failures()}")
    zero = 0.0 + 0.0j
    p = np.array([[coin.a, coin.b], [zero, zero]], dtype=np.complex128)
    q = np.array([[zero, zero], [coin.c, coin.d]], dtype=np.complex128)
    r = np.array([[coin.c, coin.d], [zero, zero]], dtype=np.complex128)
    s = np.array([[zero, zero], [coin.a, coin.b]], dtype=np.complex128)
    return p, q, r, s


def shapira_coin(x: float, y: float, z: float) -> Coin:
    """The perturbed Hadamard coin for one explicit kick vector (x, y, z)."""
    a, b, c, d = _su2_kick_parameters(np.array([[x, y, z]], dtype=np.float64))[0]
    return Coin(complex(a), complex(b), complex(c), complex(d))
