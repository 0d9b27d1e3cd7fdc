"""Value types for quantum walks on the integer line.

A walk step is driven by a 2x2 complex unitary coin acting on the two
chirality components (left and right movers).  This module holds the coin
type and its validity checks, qubit and walk states, probability
distributions over sites, and the drift check of the evolution.

All types are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

#: Tolerance for unitarity and unit-norm checks on freshly built objects.
EPS_UNIT = 1e-12

#: Per-step normalization drift budget of the evolution (double precision
#: 2x2 products lose at most a few ulps per step, so drift grows linearly).
EPS_STEP = 1e-14


class NumericalDriftError(RuntimeError):
    """Total probability drifted further from 1 than the step budget allows."""


def check_norms(totals, step: int) -> None:
    """Raise NumericalDriftError unless each total probability is within budget.

    `totals` is one walk's total probability after `step` steps, or an
    array of them.  Each may differ from 1 by at most EPS_UNIT + step *
    EPS_STEP: the initial state is unit only to EPS_UNIT, and each step
    adds at most EPS_STEP.  A NaN total fails the check.
    """
    drift = np.abs(np.subtract(totals, 1.0))
    budget = EPS_UNIT + step * EPS_STEP
    if not np.all(drift <= budget):
        raise NumericalDriftError(
            f"total probability drifted by {float(drift.max())!r} (budget {budget!r}) "
            f"at step {step}"
        )


def _require_finite(name: str, z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")


@dataclass(frozen=True)
class Coin:
    """A 2x2 complex coin matrix [[a, b], [c, d]], stored row-major.

    Entries are not forced to be unitary at construction; use
    `validate_coin` to check the unitarity relations with measured
    residuals.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            z = complex(getattr(self, name))
            _require_finite(name, z)
            object.__setattr__(self, name, z)

    @property
    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: The Hadamard coin, (1/sqrt 2) [[1, 1], [1, -1]].
HADAMARD = Coin(_INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)


@dataclass(frozen=True)
class CoinValidation:
    """Per-constraint residuals of the unitarity relations of a coin.

    The checked set (column norms, column orthogonality, determinant
    modulus, and the reconstruction of the bottom row from the top one)
    is sufficient for unitarity: the reconstruction relations plus
    |det| = 1 force the row norms and orthogonality as well.  A
    constraint passes when its residual is at most EPS_UNIT.
    """

    residuals: Mapping[str, float]

    @property
    def passed(self) -> dict[str, bool]:
        return {name: r <= EPS_UNIT for name, r in self.residuals.items()}

    @property
    def ok(self) -> bool:
        return all(self.passed.values())

    def failures(self) -> list[str]:
        return [name for name, good in self.passed.items() if not good]


def validate_coin(coin: Coin) -> CoinValidation:
    """Check the unitarity relations of `coin` and report residuals.

    Constraints, with delta = ad - bc:

    * ``norm_ac``:        |a|^2 + |c|^2 = 1
    * ``norm_bd``:        |b|^2 + |d|^2 = 1
    * ``orthogonality``:  a conj(c) + b conj(d) = 0
    * ``det_modulus``:    |delta| = 1
    * ``c_from_det``:     c = -delta conj(b)
    * ``d_from_det``:     d =  delta conj(a)
    """
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    delta = coin.determinant
    residuals = {
        "norm_ac": abs(abs(a) ** 2 + abs(c) ** 2 - 1.0),
        "norm_bd": abs(abs(b) ** 2 + abs(d) ** 2 - 1.0),
        "orthogonality": abs(a * c.conjugate() + b * d.conjugate()),
        "det_modulus": abs(abs(delta) - 1.0),
        "c_from_det": abs(c + delta * b.conjugate()),
        "d_from_det": abs(d - delta * a.conjugate()),
    }
    return CoinValidation(residuals=residuals)


@dataclass(frozen=True)
class QubitState:
    """A unit-norm chirality qubit (alpha, beta)."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        alpha, beta = complex(self.alpha), complex(self.beta)
        _require_finite("alpha", alpha)
        _require_finite("beta", beta)
        norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
        if abs(norm_sq - 1.0) > EPS_UNIT:
            raise ValueError(f"qubit state must have unit norm, |alpha|^2+|beta|^2 = {norm_sq!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=np.complex128)


def _frozen_array(values: np.ndarray, dtype: np.dtype, length: int, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64) if arr.dtype == np.complex128 else arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class WalkState:
    """Walker amplitudes after `step` steps.

    The support after n steps is exactly the n+1 sites k in
    {-n, -n+2, ..., n}; index i of the dense arrays maps to site
    k = 2*i - n.  Sites of the opposite parity are never allocated, so
    their amplitude is identically zero.
    """

    step: int
    psi_l: np.ndarray
    psi_r: np.ndarray

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be nonnegative, got {self.step}")
        length = self.step + 1
        object.__setattr__(self, "psi_l", _frozen_array(self.psi_l, np.complex128, length, "psi_l"))
        object.__setattr__(self, "psi_r", _frozen_array(self.psi_r, np.complex128, length, "psi_r"))

    def norm_sq(self) -> float:
        p = self.psi_l.real**2 + self.psi_l.imag**2 + self.psi_r.real**2 + self.psi_r.imag**2
        return float(p.sum())


@dataclass(frozen=True)
class Distribution:
    """Probability mass over the sites reachable in n steps.

    Index i of `probs` maps to site k = 2*i - n, the same layout as
    `WalkState`.  Off-support sites carry exactly zero mass.
    """

    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        arr = _frozen_array(self.probs, np.float64, self.n + 1, "probs")
        if np.any(arr < 0.0):
            raise ValueError("probabilities must be nonnegative")
        object.__setattr__(self, "probs", arr)

    def sites(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1, 2)

    def prob(self, k: int) -> float:
        if abs(k) > self.n or (self.n + k) % 2 != 0:
            return 0.0
        return float(self.probs[(k + self.n) // 2])

    def total(self) -> float:
        return float(self.probs.sum())

    def items(self) -> Iterator[tuple[int, float]]:
        for i, k in enumerate(self.sites()):
            yield int(k), float(self.probs[i])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "mass": [[k, p] for k, p in self.items()]}

    def to_csv_rows(self) -> list[str]:
        return ["k,probability"] + [f"{k},{p!r}" for k, p in self.items()]


def summary_stats(dist: Distribution) -> tuple[float, float]:
    """(mean, variance) of the site coordinate under `dist`."""
    k = dist.sites().astype(np.float64)
    mean = float((k * dist.probs).sum())
    variance = float((k * k * dist.probs).sum()) - mean * mean
    return mean, variance


def _sample_variance(mean: np.ndarray, total_sq: np.ndarray, count: int) -> np.ndarray:
    """Sample variance of `count` values from their mean and sum of squares.

    Zeros when `count` is below 2.  A negative difference, which only
    rounding can give, reads 0.
    """
    if count < 2:
        return np.zeros_like(mean)
    return np.maximum(total_sq - count * mean**2, 0.0) / (count - 1)
