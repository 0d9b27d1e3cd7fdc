"""Time evolution of the walk on the integer line.

One step routes the top row of the coin U = [[a, b], [c, d]] one site
to the left and its bottom row one site to the right: with
P = [[a, b], [0, 0]] and Q = [[0, 0], [c, d]], the new amplitude at
site k is

    psi'_k = Q psi_{k-1} + P psi_{k+1}

The support after n steps is the parity-respecting segment
{-n, -n+2, ..., n}; there is no boundary, so the evolution is exactly
unitary for every horizon.

The private block kernel `_evolve_block` evolves many realizations at
once with the same elementwise arithmetic as `evolve`, which keeps single
runs and Monte Carlo trials bit-identical.  It steps the trials in
sub-blocks whose size is derived from n alone, in amplitude buffers
allocated once per call.  A trial's arithmetic does not depend on the
sub-block it falls in, so results are bit-identical at any block or
sub-block size.

The kernel starts either at the origin, from one qubit state per trial,
or from amplitude states already evolved over some steps, and then
applies the remaining coins with the same step, so finishing a walk from
its state after a prefix of its coins gives the same bits as evolving it
from the origin.  `exact_average` uses both: the origin start for a
one-coin ensemble, whose average is its walk, and the amplitude-state
start for its last step with each support coin, on two states that carry
the site blocks of its averaged density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Coin, Distribution, QubitState, WalkState, check_norms, distribution_of

_ZERO = np.zeros(1, dtype=np.complex128)


@dataclass(frozen=True)
class WalkRun:
    """The final state of one realization."""

    final: WalkState

    def distribution(self) -> Distribution:
        return distribution_of(self.final)


def evolve(initial: QubitState, coins: Sequence[Coin]) -> WalkRun:
    """Apply `coins` in order to the origin-localized state `initial`.

    Each step grows the support by one site each side, and the drift
    check (`check_norms`) runs after every step.
    """
    state = WalkState(0, np.array([initial.alpha]), np.array([initial.beta]))
    for coin in coins:
        left = coin.a * state.psi_l + coin.b * state.psi_r
        right = coin.c * state.psi_l + coin.d * state.psi_r
        state = WalkState(
            state.step + 1, np.concatenate([left, _ZERO]), np.concatenate([_ZERO, right])
        )
        check_norms(state.norm_sq(), state.step)
    return WalkRun(final=state)


#: Bytes of amplitude working set per kernel sub-block: the left, two right
#: and one scratch complex amplitudes of every trial in it.
WORKSET = 1 << 20


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
    final width so that the four amplitude buffers fill WORKSET bytes, but
    no fewer than 8 trials and no more than the block has.  The buffers
    are allocated once per call and hold a sub-block site-major,
    (w0+q, rows): the first w sites of every trial are one contiguous
    stretch, so each step is six ufunc calls on contiguous memory.
    """
    if initial.ndim == 2:
        initial = initial[:, np.newaxis, :]
    trials, q = abcd.shape[0], abcd.shape[1]
    w0 = initial.shape[1]
    width = w0 + q
    rows = max(1, min(trials, max(8, WORKSET // (64 * width))))
    amplitudes = np.empty((4, width * rows), dtype=np.complex128)
    coin_buffer = np.empty(q * 4 * rows, dtype=abcd.dtype)
    square_buffer = np.empty(width * rows)
    probs = np.empty((trials, width))
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        m = stop - start
        l, r, r_next, t = amplitudes[:, : width * m].reshape(4, width, m)
        # coins[j] unpacks into the (1, m) rows a, b, c, d of step j.  numpy
        # copies a broadcast (1, m) operand into its iterator buffer whenever
        # a buffer chunk spans sites, so such a multiply costs about 1.2-1.4 ns
        # per element against 0.66 ns with same-shape operands (numpy 2.4.6,
        # (17, 910) complex).  Copying the coins step-major first makes every
        # row contiguous, so those buffer copies stay cheap: reading strided
        # rows straight from `abcd` took 0.57-0.69 s against 0.47-0.53 s per
        # 1024-trial block at n=320 (medians of 5, in-process, 2-core Xeon).
        # Monte Carlo blocks of `UniformDraw` coins hand over (4, q, m)
        # planes, so this copy also reads contiguous rows; other coins are
        # (m, q, 4) rows and read with a stride.
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
            lw, rw, tw, r_out = l[:w], r[:w], t[:w], r_next[1 : w + 1]
            # The right-moving part c*l + d*r goes to r_next, the left-moving
            # part a*l + b*r back to l.  The products keep `evolve`'s operand
            # order (coin entry first): numpy's complex multiply may fuse a
            # product into a sum, so swapping operands can change the last bit.
            np.multiply(c, lw, out=r_out)
            np.multiply(d, rw, out=tw)
            np.add(r_out, tw, out=r_out)
            np.multiply(a, lw, out=tw)
            np.multiply(b, rw, out=lw)
            np.add(tw, lw, out=lw)
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
