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
runs and Monte Carlo trials bit-identical.  It visits the cells (step s,
site i) in one order per kind of call, chosen from the call's shapes
alone.  A Monte Carlo block (an origin start of at least two trials) goes
along the diagonals s + i = k, whose cells all have different steps and
so read contiguous coin planes, in sub-blocks whose size is derived from
n alone; a single walk or an amplitude start goes site-major, one step
after another, over all its trials at once.  A cell computes the same
products and sums of the same operands whatever the order, sub-block or
neighbours, so results are bit-identical at any block or sub-block size
and in either order.

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

from .core import Coin, QubitState, WalkState, check_norms

_ZERO = np.zeros(1, dtype=np.complex128)


@dataclass(frozen=True)
class WalkRun:
    """The final state of one realization."""

    final: WalkState


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


#: Bytes of slots, finished cells and scratch per diagonal sub-block: 39
#: trials at n=320.  Up to 64 trials ran about 5% faster there, but from 48
#: trials a 1024-trial Monte Carlo run's traced peak passes 10 MiB.
DIAGONAL_WORKSET = 7 << 18


def _evolve_block(abcd: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Occupation probabilities for a block of independent realizations.

    `abcd` has shape (trials, q, 4) holding each trial's coin entries per
    step.  `initial` is either (trials, 2), one qubit state per trial at
    the origin, or (trials, w0, 2), amplitude states (psi_l, psi_r) over
    w0 sites after w0-1 steps, as a `WalkState` holds them; the origin
    form is the w0 = 1 case.  Returns (trials, w0+q) site probabilities.
    Row t is bit-identical to evolving trial t alone, from the origin
    through all of its coins.  `abcd` is read only through `shape` and
    slices `abcd[start:stop]` of consecutive trials, whose coin entries
    are copied into complex128 buffers, so it may be an object that makes
    those trials' coins when sliced.

    An origin start of at least two trials, a Monte Carlo block, is
    stepped along diagonals (`_evolve_diagonals`); a single walk or an
    amplitude start (the exact finish) site-major as below.  In either
    order a cell computes c*l + d*r and a*l + b*r with the coin entry as
    first operand, and numpy rounds each element of a multiply or add
    alike wherever it falls in a call whose output is one of its inputs
    or overlaps none of them, so a row's bits do not depend on the order.

    Site-major, all trials are stepped in one pass on four amplitude
    buffers that hold them site-major, (w0+q, trials): the first w sites
    of every trial are one contiguous stretch, so each step is six ufunc
    calls on contiguous memory.
    """
    trials, q = abcd.shape[0], abcd.shape[1]
    if initial.ndim == 2 and trials >= 2:
        return _evolve_diagonals(abcd, initial)
    if initial.ndim == 2:
        initial = initial[:, np.newaxis, :]
    w0 = initial.shape[1]
    width = w0 + q
    l, r, r_next, t = np.empty((4, width, trials), dtype=np.complex128)
    # coins[j] unpacks into the (1, trials) rows a, b, c, d of step j.
    coins = np.empty((q, 4, 1, trials), dtype=np.complex128)
    np.copyto(coins[:, :, 0], abcd[0:trials].transpose(1, 2, 0))
    # Cells a step does not write must read as zero: the left cells past
    # the support and the first right cell.
    l[w0:] = 0
    np.copyto(l[:w0], initial[:, :, 0].T)
    np.copyto(r[:w0], initial[:, :, 1].T)
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
    probs = np.empty((trials, width))
    _sum_squares(l, r, probs.T, t.real)
    return probs


def _evolve_diagonals(abcd: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """`_evolve_block` of an origin start, visiting cells along diagonals.

    Every trial redraws its coin each step, so a site-major step
    multiplies one (1, rows) coin row into all its sites, and numpy runs
    that broadcast multiply at 1.33 ns per element against 0.72 ns for
    operands of equal shape (numpy 2.4.6, (160, 51) complex, 2-core
    Xeon).  The cells (s, i) of one diagonal s + i = k all have different
    steps, so they read a contiguous stretch of the (4, q, rows) coin
    planes, and the amplitudes are broadcast only over the leading (a, c)
    or (b, d) axis (the wavefront method: M. Wolfe, "Loop skewing: the
    wavefront method revisited", Int. J. Parallel Programming 15, 279,
    1986).  Each diagonal is three ufunc calls on views made once per
    sub-block size; slicing them per diagonal took about 9% longer at
    n=320.

    Stepping cell (s, i) of diagonal k writes its left mover to diagonal
    k+1 and its right mover to k+2, so diagonal k writes one (2, q+1, rows)
    slot of `slots`, slot k % 3, with the left movers of k+1 and the right
    movers of k+2, indexed by step.  It reads the left movers from slot
    (k-1) % 3 and the right movers from slot (k-2) % 3, so the one view it
    writes spans none of the cells it reads: numpy rounded the complex
    products of a one-trial sub-block differently when it did.  Two cells
    are never written, and are zero: the right mover of (k, 0), whose index
    no earlier diagonal of the sub-block reaches, so zeroing the right
    movers once per sub-block covers it, and, for even k, the left mover
    of the new rightmost cell (k/2, k/2).  Finished cells (q, k-q) are
    copied out to `final` before their slot is reused.  Sub-blocks hold
    `rows` trials, sized so that the slots, finished cells and scratch
    fill DIAGONAL_WORKSET bytes, but no fewer than 8 trials and no more
    than the block has; each sub-block's coins are copied into one buffer,
    so a lazy `abcd` frees them before it makes the next ones.
    """
    trials, q = abcd.shape[0], abcd.shape[1]
    half = q // 2 + 1
    rows = min(trials, max(8, DIAGONAL_WORKSET // (16 * (8 * (q + 1) + 2 * half))))
    cell_buffer = np.empty(8 * (q + 1) * rows, dtype=np.complex128)
    tmp_buffer = np.empty(2 * half * rows, dtype=np.complex128)
    coin_buffer = np.empty(4 * q * rows, dtype=np.complex128)
    probs = np.empty((trials, q + 1))
    views_rows = 0
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        m = stop - start
        cells = cell_buffer[: 8 * (q + 1) * m].reshape(4, 2, q + 1, m)
        slots, final = cells[:3], cells[3]
        coins = coin_buffer[: 4 * q * m].reshape(4, q, m)
        if m != views_rows:
            views = None  # released before the next sub-block size's are made
            views, views_rows = _diagonal_views(slots, coins, tmp_buffer), m
        np.copyto(coins, abcd[start:stop].transpose(2, 1, 0))
        slots[:, 1] = 0
        np.copyto(slots[2, 0, 0], initial[start:stop, 0])
        np.copyto(slots[1, 1, 0], initial[start:stop, 1])
        for k in range(2 * q + 1):
            if k > 0 and k % 2 == 0:
                slots[(k - 1) % 3, 0, k // 2] = 0
            if k >= q:
                final[0, k - q] = slots[(k - 1) % 3, 0, q]
                final[1, k - q] = slots[(k - 2) % 3, 1, q]
            if k < 2 * q - 1:
                ac, l, dst, bd, r, tmp = views[k]
                # The same products, operand order and sums as a site-major step.
                np.multiply(ac, l, out=dst)
                np.multiply(bd, r, out=tmp)
                np.add(dst, tmp, out=dst)
        out = slots[0, 0].real
        _sum_squares(final[0], final[1], out, slots[0, 1].real)
        np.copyto(probs[start:stop].T, out)
    return probs


def _diagonal_views(slots: np.ndarray, coins: np.ndarray, tmp_buffer: np.ndarray) -> list:
    """Operands (a|c, l, out, b|d, r, scratch) of diagonals k = 0..2q-2."""
    q, m = coins.shape[1], coins.shape[2]
    views = []
    for k in range(2 * q - 1):
        lo, hi = (k + 1) // 2, min(k, q - 1)
        views.append((
            coins[0::2, lo : hi + 1], slots[(k - 1) % 3, 0, lo : hi + 1],
            slots[k % 3, :, lo + 1 : hi + 2],
            coins[1::2, lo : hi + 1], slots[(k - 2) % 3, 1, lo : hi + 1],
            tmp_buffer[: 2 * (hi + 1 - lo) * m].reshape(2, hi + 1 - lo, m),
        ))
    return views


def _sum_squares(l: np.ndarray, r: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = |l|^2 + |r|^2, summing l.real, l.imag, r.real, r.imag squared in that order."""
    np.square(l.real, out=out)
    np.add(out, np.square(l.imag, out=scratch), out=out)
    np.add(out, np.square(r.real, out=scratch), out=out)
    np.add(out, np.square(r.imag, out=scratch), out=out)


def _check_block_norms(probs: np.ndarray, n: int) -> None:
    """The drift check of each row of a (trials, n+1) block of probabilities."""
    check_norms(probs.sum(axis=1), n)
