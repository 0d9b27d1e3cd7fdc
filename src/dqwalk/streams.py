"""Deterministic random streams for reproducible serial and parallel runs.

Every stochastic quantity in the package draws from a PCG64 generator
derived from a 64-bit master seed plus an integer key path, via numpy's
`SeedSequence` spawn-key mechanism.  The same (master seed, path) always
yields the same stream, regardless of process, worker count, or call
order, which is what makes Monte Carlo results invariant to how trials
are scheduled.

Key paths used by this package:

* ``(trial, COIN_STREAM)``  coin draws of one Monte Carlo trial
* ``(trial, INIT_STREAM)``  initial-state draw of one trial
* ``()``                    standalone draws (moment audits, ad hoc sampling)

`block_uniforms` computes the `random()` draws of many consecutive trials'
streams at once, in uint32/uint64 array arithmetic that reimplements
numpy's `SeedSequence` hashing (NEP 19), `PCG64` seeding, the 128-bit LCG
with XSL-RR output (O'Neill, *PCG*, 2014) and `next_double`.  Its rows are
bit-identical to the per-trial generators from `substream`, which stay the
reference the tests compare against.
"""

from __future__ import annotations

import numpy as np

COIN_STREAM = 0
INIT_STREAM = 1

#: Master seeds are 64-bit: at most two 32-bit words of run entropy.
SEED_LIMIT = 1 << 64

_MASK32 = 0xFFFFFFFF

# numpy SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier as 64-bit halves, and its low half as
# 32-bit limbs for the high word of the 64x64-bit product.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & (2**64 - 1))
_MULT_LO_0 = np.uint64(_PCG_MULT & _MASK32)
_MULT_LO_1 = np.uint64((_PCG_MULT >> 32) & _MASK32)
_U32 = np.uint64(_MASK32)
_ONE = np.uint64(1)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53, as in numpy's next_double


def _check_seed(master_seed: int) -> int:
    master_seed = int(master_seed)
    if not 0 <= master_seed < SEED_LIMIT:
        raise ValueError(f"master seed must be in [0, 2**64), got {master_seed}")
    return master_seed


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given master seed and key path."""
    master_seed = _check_seed(master_seed)
    key = tuple(int(p) for p in path)
    if any(p < 0 for p in key):
        raise ValueError(f"stream path must be nonnegative integers, got {key}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


# --- SeedSequence on arrays ---------------------------------------------------
#
# Both helpers accept Python ints below 2**32 or uint32 arrays; on arrays the
# products wrap modulo 2**32 by themselves and the masks change nothing.


class _HashMix:
    """SeedSequence's `hashmix` together with its running hash constant."""

    def __init__(self, const: int, mult: int) -> None:
        self.const = const
        self.mult = mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = (value * self.const) & _MASK32
        return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence splits it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _pcg_seeds(master_seed: int, trials: np.ndarray, stream: int) -> list[np.ndarray]:
    """`SeedSequence(master_seed, spawn_key=(t, stream)).generate_state(4, uint64)`.

    `trials` is a nonempty uint64 array whose entries all have the same
    number of 32-bit words.  Returns the four state words, each an array
    over trials.
    """
    hashmix = _HashMix(_INIT_A, _MULT_A)
    # Run entropy padded to the pool size (a spawn key is present), hashed
    # into the pool and mixed; this part is the same for every trial.
    run = _words(master_seed)
    run += [0] * (_POOL_SIZE - len(run))
    pool = [hashmix(word) for word in run]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # The spawn-key words (trial words, then stream words) mix into every
    # pool word, each through its own hashmix call.
    count = trials.size
    width = len(_words(int(trials[0])))
    spawn = [((trials >> np.uint64(32 * k)) & _U32).astype(np.uint32) for k in range(width)]
    spawn += [np.full(count, word, dtype=np.uint32) for word in _words(stream)]
    pool = [np.full(count, word, dtype=np.uint32) for word in pool]
    for word in spawn:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight uint32 outputs cycling over the pool,
    # paired little-endian into uint64 words.
    hashmix = _HashMix(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [out[2 * k] | (out[2 * k + 1] << np.uint64(32)) for k in range(4)]


# --- PCG64 on arrays ------------------------------------------------------------


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc (mod 2**128) on (hi, lo) uint64 arrays."""
    lo_0 = lo & _U32
    lo_1 = lo >> np.uint64(32)
    p00 = lo_0 * _MULT_LO_0
    p01 = lo_0 * _MULT_LO_1
    p10 = lo_1 * _MULT_LO_0
    mid = (p00 >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
    carry_hi = lo_1 * _MULT_LO_1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
    mul_hi = carry_hi + (mid >> np.uint64(32)) + lo * _MULT_HI + hi * _MULT_LO
    return _add128(mul_hi, lo * _MULT_LO, inc_hi, inc_lo)


def _next_double(hi, lo) -> np.ndarray:
    """XSL-RR output of the (already stepped) state, then numpy's next_double."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT


def _block_segment(master_seed: int, trials: np.ndarray, stream: int, out: np.ndarray) -> None:
    w0, w1, w2, w3 = _pcg_seeds(master_seed, trials, stream)
    # pcg_setseq_128_srandom_r: state = 0, inc = initseq << 1 | 1, step,
    # state += initstate, step; with initstate = w0:w1 and initseq = w2:w3.
    inc_hi = (w2 << _ONE) | (w3 >> np.uint64(63))
    inc_lo = (w3 << _ONE) | _ONE
    hi, lo = _add128(inc_hi, inc_lo, w0, w1)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    for j in range(out.shape[1]):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        out[:, j] = _next_double(hi, lo)


def block_uniforms(master_seed: int, start: int, count: int, stream: int, size: int) -> np.ndarray:
    """Uniform draws of `count` consecutive trials' streams, one row per trial.

    Row i is bit-identical to `substream(master_seed, start + i, stream)
    .random(size)`: the whole (count, size) block is seeded and drawn in
    array arithmetic instead of building one generator per trial.
    """
    master_seed = _check_seed(master_seed)
    start, count, stream, size = int(start), int(count), int(stream), int(size)
    if start < 0 or stream < 0:
        raise ValueError(f"stream path must be nonnegative integers, got {(start, stream)}")
    if count < 0 or size < 0:
        raise ValueError(f"count and size must be nonnegative, got {count} and {size}")
    if start + count > SEED_LIMIT:
        raise ValueError(f"trial indices must be below 2**64, got up to {start + count - 1}")
    out = np.empty((count, size), dtype=np.float64)
    # SeedSequence splits each spawn-key entry into as many 32-bit words as
    # it needs, so trials below and above 2**32 hash differently.
    edge = min(max(start, 1 << 32), start + count) - start
    for lo, hi in ((0, edge), (edge, count)):
        if hi > lo:
            trials = np.arange(start + lo, start + hi, dtype=np.uint64)
            _block_segment(master_seed, trials, stream, out[lo:hi])
    return out
