"""Time evolution of the walk on the integer line.

One step splits the coin U into its left-moving part P and right-moving
part Q and routes amplitude accordingly: the new amplitude at site k is

    psi'_k = Q psi_{k-1} + P psi_{k+1}

The support after n steps is the parity-respecting segment
{-n, -n+2, ..., n}; there is no boundary, so the evolution is exactly
unitary for every horizon.

The private block kernel `_evolve_block` evolves many realizations at
once with the same elementwise arithmetic as `step`, which keeps single
runs and Monte Carlo trials bit-identical.  It steps the trials in
sub-blocks whose size is derived from n alone, in amplitude buffers
allocated once per call.  A trial's arithmetic does not depend on the
sub-block it falls in, so results are bit-identical at any block or
sub-block size.

The kernel starts either at the origin, from one qubit state per trial,
or from amplitude states already evolved over some steps, and then
applies the remaining coins.  Both forms run the same coin step
(`_coin_step`), so finishing a walk from its state after a prefix of its
coins gives the same bits as evolving it from the origin; exact averages
use this to step each shared coin prefix once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Coin, Distribution, QubitState, WalkState, check_norms, distribution_of
from .ensembles import CoinEnsemble, InitialStateRule
from .streams import COIN_STREAM, INIT_STREAM, substream

_ZERO = np.zeros(1, dtype=np.complex128)


def step(state: WalkState, coin: Coin) -> WalkState:
    """Advance one step under `coin`, growing the support by one site each side."""
    left = coin.a * state.psi_l + coin.b * state.psi_r
    right = coin.c * state.psi_l + coin.d * state.psi_r
    psi_l = np.concatenate([left, _ZERO])
    psi_r = np.concatenate([_ZERO, right])
    new = WalkState(state.step + 1, psi_l, psi_r)
    check_norms(new.norm_sq(), new.step)
    return new


@dataclass(frozen=True)
class WalkRun:
    """One realization: initial state, its coin sequence, and the final state."""

    initial: QubitState
    coins: tuple[Coin, ...]
    final: WalkState

    def distribution(self) -> Distribution:
        return distribution_of(self.final)


def evolve(initial: QubitState, coins: Sequence[Coin]) -> WalkRun:
    """Apply `coins` in order to the origin-localized state `initial`."""
    state = WalkState.from_qubit(initial)
    for coin in coins:
        state = step(state, coin)
    return WalkRun(initial=initial, coins=tuple(coins), final=state)


#: Bytes of amplitude working set per kernel sub-block: the left, two right
#: and one scratch complex amplitudes of every trial in it.
WORKSET = 1 << 20


def _coin_step(a, b, c, d, l, r, l_out, r_out, t) -> None:
    """One walk step on site-major amplitude arrays, in six ufunc calls.

    Writes the right-moving part c*l + d*r to `r_out` and the left-moving
    part a*l + b*r to `l_out` (which may be `l` itself), using `t` as
    scratch.  The coin entries a, b, c, d are scalars or arrays that
    broadcast against `l`.  The products keep `step`'s operand order (coin
    entry first): numpy's complex multiply may fuse a product into a sum,
    so swapping operands can change the last bit.
    """
    np.multiply(c, l, out=r_out)
    np.multiply(d, r, out=t)
    np.add(r_out, t, out=r_out)
    np.multiply(a, l, out=t)
    np.multiply(b, r, out=l_out)
    np.add(t, l_out, out=l_out)


def _evolve_block(abcd: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Occupation probabilities for a block of independent realizations.

    `abcd` has shape (trials, q, 4) holding each trial's coin entries per
    step.  `initial` is either (trials, 2), one qubit state per trial at
    the origin, or (trials, w0, 2), amplitude states (psi_l, psi_r) over
    w0 sites after w0-1 steps, as a `WalkState` holds them; the origin
    form is the w0 = 1 case.  Returns (trials, w0+q) site probabilities.
    Row t is bit-identical to evolving trial t alone, from the origin
    through all of its coins.  `abcd` is read only through `shape`,
    `dtype` and one slice `abcd[start:stop]` per sub-block, so it may be
    an object that makes each sub-block's coins when sliced.

    Trials are stepped in sub-blocks of `rows` trials, sized from the
    final width so that the four amplitude buffers fill WORKSET bytes.
    The buffers are allocated once per call and hold a sub-block
    site-major, (w0+q, rows): the first w sites of every trial are one
    contiguous stretch, so each step is one `_coin_step` on contiguous
    memory.
    """
    if initial.ndim == 2:
        initial = initial[:, np.newaxis, :]
    trials, q = abcd.shape[0], abcd.shape[1]
    w0 = initial.shape[1]
    width = w0 + q
    rows = max(8, min(trials, WORKSET // (64 * width)))
    amplitudes = np.empty((4, width * rows), dtype=np.complex128)
    coin_buffer = np.empty(q * 4 * rows, dtype=abcd.dtype)
    square_buffer = np.empty(width * rows)
    probs = np.empty((trials, width))
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        m = stop - start
        l, r, r_next, t = amplitudes[:, : width * m].reshape(4, width, m)
        # coins[j] unpacks into the (1, m) rows a, b, c, d of step j.
        coins = coin_buffer[: q * 4 * m].reshape(q, 4, 1, m)
        np.copyto(coins[:, :, 0], abcd[start:stop].transpose(1, 2, 0))
        # Cells a step does not write must read as zero: the left cells past
        # the support and the first right cell.
        l[w0:] = 0
        np.copyto(l[:w0], initial[start:stop, :, 0].T)
        np.copyto(r[:w0], initial[start:stop, :, 1].T)
        for j in range(q):
            r_next[0] = 0
            a, b, c, d = coins[j]
            w = w0 + j
            lw = l[:w]
            _coin_step(a, b, c, d, lw, r[:w], lw, r_next[1 : w + 1], t[:w])
            r, r_next = r_next, r
        # Sum the squares site-major, then write the rows out in one copy.
        out = square_buffer[: width * m].reshape(width, m)
        tr = t.real
        np.square(l.real, out=out)
        np.add(out, np.square(l.imag, out=tr), out=out)
        np.add(out, np.square(r.real, out=tr), out=out)
        np.add(out, np.square(r.imag, out=tr), out=out)
        np.copyto(probs[start:stop].T, out)
    return probs


def _check_block_norms(probs: np.ndarray, n: int) -> None:
    """The drift check of each row of a (trials, n+1) block of probabilities."""
    check_norms(probs.sum(axis=1), n)


def run_realization(
    ensemble: CoinEnsemble,
    init_rule: InitialStateRule,
    n: int,
    master_seed: int,
    trial: int = 0,
) -> Distribution:
    """One seeded realization: draw n coins and an initial state, evolve.

    The coin sequence comes from the stream (master_seed, trial,
    COIN_STREAM) and the initial state, when random, from (master_seed,
    trial, INIT_STREAM).  Identical inputs give identical output, and the
    result equals the corresponding trial inside `monte_carlo_average`
    bit for bit.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    abcd = ensemble.sample_batch(substream(master_seed, trial, COIN_STREAM), n)
    initial = init_rule.draw_batch(
        substream(master_seed, trial, INIT_STREAM) if init_rule.kind == "random" else None, 1
    )
    probs = _evolve_block(abcd[np.newaxis, :, :], initial)
    _check_block_norms(probs, n)
    return Distribution(n, probs[0])
