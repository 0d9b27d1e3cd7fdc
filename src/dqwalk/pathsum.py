"""Path-sum coefficient algebra and exact ensemble averages.

The amplitude at site k after n steps is a sum over all n-step
left/right move sequences of ordered products of the one-row matrices
P_j and Q_j.  Products of the four one-row matrices P, Q, R, S close
under left multiplication up to a scalar coin entry:

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
The coefficients only involve coins 2..n; coin 1 is absorbed into the
basis and never read.

`exact_average` turns a finite-support coin ensemble into the exactly
weighted ensemble average of the walk by enumerating all coin sequences,
and `binomial_law` gives the classical symmetric random walk mass the
averaged disordered walk collapses to.  Sequences that share a coin
prefix share the walk state after it, so the enumeration steps a prefix
trie level by level, each node once per child coin, and hands the block
kernel only each sequence's last step.  Each trie level is stored in
prefix order and carries every prefix's weight product down with it,
so neither the states nor the weights need an index per sequence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Coin, Distribution, QubitState, WalkState
from .engine import Workspace, _check_block_norms, _coin_step, _evolve_block, workspace
from .ensembles import CoinEnsemble, InitialStateRule

BASIS_LABELS = ("P", "Q", "R", "S")

_INDEX = {label: i for i, label in enumerate(BASIS_LABELS)}

# (left label, right label) -> (coin entry of the left factor, result label)
_PRODUCT = {
    ("P", "P"): ("a", "P"), ("P", "Q"): ("b", "R"), ("P", "R"): ("a", "R"), ("P", "S"): ("b", "P"),
    ("Q", "P"): ("c", "S"), ("Q", "Q"): ("d", "Q"), ("Q", "R"): ("c", "Q"), ("Q", "S"): ("d", "S"),
    ("R", "P"): ("c", "P"), ("R", "Q"): ("d", "R"), ("R", "R"): ("c", "R"), ("R", "S"): ("d", "P"),
    ("S", "P"): ("a", "S"), ("S", "Q"): ("b", "Q"), ("S", "R"): ("a", "Q"), ("S", "S"): ("b", "S"),
}

# Update rules of the coefficient DP, derived from the table rows for the
# two factors that actually occur in the evolution (P: move left, Q: move
# right): (source column, coin entry, destination column).
_APPLY = {
    left: [
        (_INDEX[right], entry, _INDEX[result])
        for right in BASIS_LABELS
        for entry, result in [_PRODUCT[(left, right)]]
    ]
    for left in ("P", "Q")
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
        sites = []
        for i, k in enumerate(self.sites()):
            row = self.coeffs[i]
            flat = []
            for z in row:
                flat.extend([z.real, z.imag])
            sites.append([int(k), flat])
        return {"n": self.n, "sites": sites}


def coefficients(coins, n: int) -> PathCoefficients:
    """Forward DP for the basis coefficients after n steps.

    Seeds at step 1 with P_1 at site -1 and Q_1 at site +1, then for each
    later step left-multiplies the decomposition arriving from the right
    neighbour by P and from the left neighbour by Q, using the product
    table.  Only coins 2..n are read; the result is invariant under any
    replacement of coin 1.
    """
    if n < 1:
        raise ValueError(f"coefficients need n >= 1, got {n}")
    if len(coins) < n:
        raise ValueError(f"need at least {n} coins, got {len(coins)}")
    current = np.zeros((2, 4), dtype=np.complex128)
    current[0, _INDEX["P"]] = 1.0
    current[1, _INDEX["Q"]] = 1.0
    for m in range(2, n + 1):
        coin = coins[m - 1]
        new = np.zeros((m + 1, 4), dtype=np.complex128)
        for src, entry, dst in _APPLY["P"]:
            new[0:m, dst] += getattr(coin, entry) * current[:, src]
        for src, entry, dst in _APPLY["Q"]:
            new[1 : m + 1, dst] += getattr(coin, entry) * current[:, src]
        current = new
    return PathCoefficients(n, current)


def reconstruct_state(pc: PathCoefficients, first_coin: Coin, phi: QubitState) -> WalkState:
    """Rebuild walk amplitudes from coefficients, the first coin, and phi.

    The transfer operator at a site is
    [[p a1 + r c1, p b1 + r d1], [q c1 + s a1, q d1 + s b1]]; applying it
    to phi must reproduce the engine amplitudes at every site.
    """
    a1, b1, c1, d1 = first_coin.a, first_coin.b, first_coin.c, first_coin.d
    p = pc.coeffs[:, 0]
    q = pc.coeffs[:, 1]
    r = pc.coeffs[:, 2]
    s = pc.coeffs[:, 3]
    psi_l = (p * a1 + r * c1) * phi.alpha + (p * b1 + r * d1) * phi.beta
    psi_r = (q * c1 + s * a1) * phi.alpha + (q * d1 + s * b1) * phi.beta
    return WalkState(pc.n, psi_l, psi_r)


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
    site equals `term_count`.  This is a test oracle, capped at n <= 10.
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


class EnumerationInfeasibleError(RuntimeError):
    """Exact averaging was asked for an ensemble it cannot enumerate."""


_ENUMERATION_CHUNK = 1 << 14


def _children(lo: int, hi: int, s: int, coin: int) -> tuple[slice, slice]:
    """Where the prefixes p*s + coin in lo..hi, and their parents, sit.

    Returns the columns of these children in a level that holds lo..hi in
    prefix order (every s-th column) and of their parents in the level
    before, which holds lo // s .. hi // s (a contiguous run).
    """
    first = lo + (coin - lo) % s
    parent = first // s - lo // s
    return slice(first - lo, None, s), slice(parent, parent + (hi - first) // s + 1)


def _chunk_sum(
    ws: Workspace,
    entry_rows: np.ndarray,
    weights: np.ndarray,
    initial_row: np.ndarray,
    n: int,
    start: int,
    stop: int,
) -> np.ndarray:
    """Weighted sum of the distributions of sequences start..stop-1.

    Sequences are numbered in `itertools.product` order over the s
    support coins, so the (n-1)-coin prefix of sequence k is k // s and
    the prefixes of length L that the range needs are the consecutive
    integers lo = start // s^(n-L) .. hi = (stop-1) // s^(n-L).  A trie
    holds each level in prefix order, prefix p in column p - lo, as the
    amplitudes `psi` = (psi_l, psi_r) of shape (2, L+1, hi-lo+1) and the
    weight products `w`.  The children of one coin are every s-th column
    and their parents a contiguous slice of the level before, so each
    coin steps its parents with one `_coin_step` and multiplies their
    weights by its own, in coin order.  The block kernel then applies
    each sequence's last coin to its parent's state.

    Every array is a view of a buffer of `ws`: the levels alternate
    between two pairs of buffers, so a level is read while the next is
    written.
    """
    s = len(entry_rows)
    psi = initial_row.reshape(2, 1, 1)
    w = np.ones(1)
    for level in range(1, n):
        scale = s ** (n - level)
        lo, hi = start // scale, (stop - 1) // scale
        parity = level % 2
        new_psi = ws.take(f"trie.psi{parity}", (2, level + 1, hi - lo + 1), np.complex128)
        new_psi[0, level] = 0
        new_psi[1, 0] = 0
        new_w = ws.take(f"trie.w{parity}", (hi - lo + 1,), np.float64)
        scratch = ws.take("trie.scratch", (level * psi.shape[2],), np.complex128)
        for coin, (a, b, c, d) in enumerate(entry_rows):
            cols, parents = _children(lo, hi, s, coin)
            l, r = psi[:, :, parents]
            t = scratch[: l.size].reshape(l.shape)
            _coin_step(a, b, c, d, l, r, new_psi[0, :level, cols], new_psi[1, 1:, cols], t)
            new_w[cols] = w[parents] * weights[coin]
        psi, w = new_psi, new_w
    probs = ws.take("chunk.probs", (stop - start, n + 1), np.float64)
    sequence_w = ws.take("chunk.weights", (stop - start,), np.float64)
    for coin, row in enumerate(entry_rows):
        rows, parents = _children(start, stop - 1, s, coin)
        states = psi[:, :, parents].T
        probs[rows] = _evolve_block(np.broadcast_to(row, (len(states), 1, 4)), states)
        sequence_w[rows] = w[parents] * weights[coin]
    _check_block_norms(probs, n)
    return sequence_w @ probs


def exact_average(
    ensemble: CoinEnsemble,
    init_rule: InitialStateRule,
    n: int,
    max_sequences: int = 10_000_000,
) -> Distribution:
    """Exactly averaged distribution over all coin sequences of length n.

    Enumerates the s^n sequences of a finite-support ensemble with their
    product weights and averages the per-sequence distributions.  Needs a
    fixed initial state and s^n <= max_sequences.

    Sequences are reduced in chunks of `_ENUMERATION_CHUNK`, in
    `itertools.product` order.  For each chunk a prefix trie, stored in
    prefix order, steps every distinct (n-1)-coin prefix once and carries
    its weight product down; then, for each last coin, the block kernel
    finishes the sequences that end in it from their parents' states
    (`_chunk_sum`).  A sequence's arithmetic is the same as evolving it
    alone from the origin, and its weight is multiplied in the same order
    as a product over its coins, so the result is bit-identical at any
    trie or chunk size.  The chunks share one workspace, which holds the
    trie levels, the chunk's rows and the kernel's buffers, so they are
    allocated once per call rather than once per chunk or kernel call.

    Raises
    ------
    EnumerationInfeasibleError
        For ensembles without finite support, or when s^n exceeds
        `max_sequences`.
    ValueError
        For random initial-state rules.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if ensemble.finite_support is None:
        raise EnumerationInfeasibleError(
            f"ensemble {ensemble.name!r} has continuous support; exact averaging needs a finite one"
        )
    if init_rule.kind != "fixed":
        raise ValueError("exact averaging needs a fixed initial state")
    if n == 0:
        return Distribution(0, np.ones(1))
    support_size = len(ensemble.finite_support)
    sequences = support_size**n
    if sequences > max_sequences:
        raise EnumerationInfeasibleError(
            f"{support_size}^{n} = {sequences} coin sequences exceed the cap of {max_sequences}"
        )

    entry_rows = np.array(
        [[c.a, c.b, c.c, c.d] for c, _ in ensemble.finite_support], dtype=np.complex128
    )
    weights = np.array([w for _, w in ensemble.finite_support])
    phi = init_rule.draw()
    initial_row = np.array([phi.alpha, phi.beta], dtype=np.complex128)

    acc = np.zeros(n + 1)
    with workspace() as ws:
        for start in range(0, sequences, _ENUMERATION_CHUNK):
            stop = min(start + _ENUMERATION_CHUNK, sequences)
            acc += _chunk_sum(ws, entry_rows, weights, initial_row, n, start, stop)
    return Distribution(n, acc)


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
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    probs = np.array([math.comb(n, m) / (1 << n) for m in range(n + 1)])
    return Distribution(n, probs)
