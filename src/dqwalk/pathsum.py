"""Path-sum coefficient algebra and exact ensemble averages.

The amplitude at site k after n steps is a sum over all n-step
left/right move sequences of ordered products of the one-row matrices
P_j and Q_j of the coins U_j = [[a, b], [c, d]].  With

    P = [[a, b], [0, 0]]   amplitude routed one site to the left
    Q = [[0, 0], [c, d]]   amplitude routed one site to the right
    R = [[c, d], [0, 0]]   bottom row lifted to the top slot
    S = [[0, 0], [a, b]]   top row dropped to the bottom slot

(P + Q = U), products of the four one-row matrices close under left
multiplication up to a scalar coin entry:

          P_n     Q_n     R_n     S_n
    P_m   a P_n   b R_n   a R_n   b P_n
    Q_m   c S_n   d Q_n   c Q_n   d S_n
    R_m   c P_n   d R_n   c R_n   d P_n
    S_m   a S_n   b Q_n   a Q_n   b S_n

(the scalar is an entry of the left coin m).  Since {P_1, Q_1, R_1, S_1}
is an orthonormal basis of the 2x2 matrices under the trace inner
product, every amplitude transfer operator decomposes as

    p P_1 + q Q_1 + r R_1 + s S_1

and a forward dynamic program over sites carries the (p, q, r, s)
4-vectors instead of the exponentially many individual path products.
A walk step only ever left-multiplies by P (move left) or Q (move
right), so `coefficients` steps with the table's P and Q rows, eight
updates written out.  The coefficients only involve coins 2..n; coin 1
is absorbed into the basis and never read.

`exact_average` turns a finite-support coin ensemble into the exactly
weighted ensemble average of the walk, and `binomial_law` gives the
classical symmetric random walk mass the averaged disordered walk
collapses to.  The average over all s^n coin sequences is carried as the
averaged density matrix from the first step, stepped by the coin-averaged
channel, so it costs O(n^3) time and O(n^2) memory instead of s^n walks;
a one-coin ensemble's average is its walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Coin, Distribution, QubitState, WalkState
from .engine import _check_block_norms, _evolve_block
from .ensembles import CoinEnsemble, InitialStateRule, _support_arrays


@dataclass(frozen=True)
class PathCoefficients:
    """The (p, q, r, s) basis coefficients at every reachable site.

    Row i of `coeffs` (shape (n+1, 4), columns ordered P, Q, R, S) holds
    the transfer-operator decomposition for site k = 2*i - n.  Together
    with the first coin these reconstruct the walk amplitudes exactly;
    see `reconstruct_state`.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (self.n + 1, 4):
            raise ValueError(f"coeffs must have shape ({self.n + 1}, 4), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def sites(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1, 2)

    def vector(self, k: int) -> tuple[complex, complex, complex, complex]:
        if abs(k) > self.n or (self.n + k) % 2 != 0:
            raise ValueError(f"site {k} is outside the parity support at n={self.n}")
        p, q, r, s = self.coeffs[(k + self.n) // 2]
        return complex(p), complex(q), complex(r), complex(s)

    def to_json_dict(self) -> dict:
        # A C-contiguous complex128 row viewed as float64 is (re, im) pairs.
        rows = self.coeffs.view(np.float64).tolist()
        return {"n": self.n, "sites": [[int(k), row] for k, row in zip(self.sites(), rows)]}


def coefficients(coins, n: int) -> PathCoefficients:
    """Forward DP for the basis coefficients after n steps.

    Seeds at step 1 with P_1 at site -1 and Q_1 at site +1, then for each
    later step m left-multiplies the decomposition arriving from the right
    neighbour by P_m and from the left neighbour by Q_m: the product
    table's P and Q rows, written out as eight updates in the table's
    order.  Only coins 2..n are read; the result is invariant under any
    replacement of coin 1.
    """
    if n < 1:
        raise ValueError(f"coefficients need n >= 1, got {n}")
    if len(coins) < n:
        raise ValueError(f"need at least {n} coins, got {len(coins)}")
    current = np.zeros((2, 4), dtype=np.complex128)
    current[0, 0] = 1.0
    current[1, 1] = 1.0
    for m in range(2, n + 1):
        coin = coins[m - 1]
        a, b, c, d = coin.a, coin.b, coin.c, coin.d
        p, q, r, s = current.T
        # Each product is added on its own: summing a pair first rounds
        # differently.  Columns are P, Q, R, S.
        new = np.zeros((m + 1, 4), dtype=np.complex128)
        new[:m, 0] += a * p  # P P = a P
        new[:m, 2] += b * q  # P Q = b R
        new[:m, 2] += a * r  # P R = a R
        new[:m, 0] += b * s  # P S = b P
        new[1:, 3] += c * p  # Q P = c S
        new[1:, 1] += d * q  # Q Q = d Q
        new[1:, 1] += c * r  # Q R = c Q
        new[1:, 3] += d * s  # Q S = d S
        current = new
    return PathCoefficients(n, current)


def reconstruct_state(pc: PathCoefficients, first_coin: Coin, phi: QubitState) -> WalkState:
    """Rebuild walk amplitudes from coefficients, the first coin, and phi.

    The transfer operator at a site is
    [[p a1 + r c1, p b1 + r d1], [q c1 + s a1, q d1 + s b1]]; applying it
    to phi must reproduce the engine amplitudes at every site.
    """
    a1, b1, c1, d1 = first_coin.a, first_coin.b, first_coin.c, first_coin.d
    p, q, r, s = pc.coeffs.T
    psi_l = (p * a1 + r * c1) * phi.alpha + (p * b1 + r * d1) * phi.beta
    psi_r = (q * c1 + s * a1) * phi.alpha + (q * d1 + s * b1) * phi.beta
    return WalkState(pc.n, psi_l, psi_r)


class EnumerationInfeasibleError(RuntimeError):
    """Exact averaging was asked for an ensemble without finite support."""


def _channel_states(
    phi: QubitState, entry_rows: np.ndarray, weights: np.ndarray, n: int
) -> np.ndarray:
    """The averaged state after n-1 steps as two amplitude "trials".

    The averaged density matrix starts as the 2x2 block phi phi^H at the
    origin and is carried as four (site, site) blocks rho_cd, c and d in
    (l, r), in two (2, 2, n, n) buffers that swap each step.  A step is
    the coin-averaged channel

        rho'_ab(i + delta_a, j + delta_b) = sum_cd T[a,b,c,d] rho_cd(i, j)

    with delta_l = 0, delta_r = 1 and T[a,b,c,d] = sum_k w_k U_k[a,c]
    conj(U_k[b,d]) summed in support order.  The ll, lr and rr blocks are
    computed, their (c, d) terms taken in the order ll, lr, rl, rr with the
    T entry as the first multiply operand and every cell a step does not
    write zeroed; rl is the conjugate transpose of lr, as rho is Hermitian.

    The last step's site probabilities read only each site's 2x2 block
    [[p, z], [conj(z), q]] of rho, which is v1 v1^H + v2 v2^H for
    v1 = (sqrt(p), conj(z)/sqrt(p)) and v2 = (0, sqrt(max(q - |z|^2/p, 0))),
    or v1 = 0 and v2 = (0, sqrt(q)) where p <= 0.  Returns them as (2, n, 2)
    amplitude states, v1 at every site in trial 0 and v2 in trial 1.
    """
    channel = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    for row, w in zip(entry_rows, weights):
        u = row.reshape(2, 2)
        channel += w * (u[:, np.newaxis, :, np.newaxis] * u.conj()[np.newaxis, :, np.newaxis, :])
    rho, new = np.empty((2, 2, 2, n, n), dtype=np.complex128)
    v = np.array([phi.alpha, phi.beta], dtype=np.complex128)
    np.multiply(v[:, np.newaxis], v.conj(), out=rho[:, :, 0, 0])
    scratch = np.empty(n * n, dtype=np.complex128)
    for width in range(1, n):
        src = rho[:, :, :width, :width]
        t = scratch[: width * width].reshape(width, width)
        window = new[:, :, : width + 1, : width + 1]
        for a, b in ((0, 0), (0, 1), (1, 1)):
            out = window[a, b]
            out[width * (1 - a)] = 0
            out[:, width * (1 - b)] = 0
            dst = out[a : a + width, b : b + width]
            coeffs = channel[a, b]
            np.multiply(coeffs[0, 0], src[0, 0], out=dst)
            for c, d in ((0, 1), (1, 0), (1, 1)):
                np.multiply(coeffs[c, d], src[c, d], out=t)
                np.add(dst, t, out=dst)
        np.conjugate(window[0, 1].T, out=window[1, 0])
        rho, new = new, rho
    sites = np.arange(n)
    p = rho[0, 0, sites, sites].real
    z = rho[0, 1, sites, sites]
    q = rho[1, 1, sites, sites].real
    pos = p > 0
    root = np.sqrt(p[pos])
    states = np.zeros((2, n, 2), dtype=np.complex128)
    states[0, pos, 0] = root
    states[0, pos, 1] = z[pos].conj() / root
    explained = np.zeros(n)
    explained[pos] = (z.real[pos] ** 2 + z.imag[pos] ** 2) / p[pos]
    states[1, :, 1] = np.sqrt(np.maximum(q - explained, 0))
    return states


def exact_average(
    ensemble: CoinEnsemble,
    init_rule: InitialStateRule,
    n: int,
) -> Distribution:
    """Exactly averaged distribution over all coin sequences of length n.

    The average of the walk over the s^n coin sequences of a
    finite-support ensemble is the site diagonal of the averaged density
    matrix rho_L = sum_k w_k U_k rho_{L-1} U_k^H, where U_k steps the walk
    with support coin k of weight w_k (Brun, Carteret and Ambainis, PRA
    67, 032304, 2003).  For two or more support coins, `_channel_states`
    applies this coin-averaged channel to rho_0 = phi phi^H for the first
    n-1 steps, O(n^2) per step and memory, and returns two states that
    carry rho's site blocks.  The last step is one block-kernel call per
    support coin on those states, and their site probabilities, summed
    and weighted by w_k, are the average.

    A one-coin ensemble's average is its walk: one kernel call evolves
    phi from the origin through all n coins, with the walk's own bits.

    Raises
    ------
    EnumerationInfeasibleError
        For ensembles without finite support.
    ValueError
        For random initial-state rules.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if ensemble.finite_support is None:
        raise EnumerationInfeasibleError(
            f"ensemble {ensemble.name!r} has continuous support; exact averaging needs a finite one"
        )
    if init_rule.state is None:
        raise ValueError("exact averaging needs a fixed initial state")
    if n == 0:
        return Distribution(0, np.ones(1))

    entry_rows, weights = _support_arrays(ensemble.finite_support)
    phi = init_rule.state
    if len(entry_rows) == 1:
        states, steps = np.array([[phi.alpha, phi.beta]], dtype=np.complex128), n
    else:
        states, steps = _channel_states(phi, entry_rows, weights, n), 1
    total = np.zeros(n + 1)
    for row, w in zip(entry_rows, weights):
        probs = _evolve_block(np.broadcast_to(row, (len(states), steps, 4)), states).sum(axis=0)
        total += w * probs
    _check_block_norms(total[np.newaxis], n)
    return Distribution(n, total)


def binomial_law(n: int, k: int) -> float:
    """Classical symmetric random walk mass C(n, (n+k)/2) / 2^n.

    Exact big-integer arithmetic, safe up to n = 1000 and beyond; sites
    off the parity support return 0.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if (n + k) % 2 != 0 or abs(k) > n:
        return 0.0
    return math.comb(n, (n + k) // 2) / (1 << n)


def binomial_distribution(n: int) -> Distribution:
    """The full classical symmetric walk law at time n as a Distribution."""
    return Distribution(n, np.array([binomial_law(n, k) for k in range(-n, n + 1, 2)]))
