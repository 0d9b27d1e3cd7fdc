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

`MasterStream` computes the stream with no key path, `substream(master_seed)`,
in the same arithmetic: consecutive `random(size)` calls give the draws of
that generator's consecutive `random(size)` calls bit for bit, taken from
4096 LCG lanes that advance together by a constant-stride jump (F. Brown,
"Random number generation with arbitrary strides", Trans. Am. Nucl. Soc.
71, 202, 1994).  Moment audits of `UniformDraw` ensembles draw from it, so
`numpy.random` is imported only when `substream` is called.
"""

from __future__ import annotations

import numpy as np

COIN_STREAM = 0
INIT_STREAM = 1

#: Master seeds are 64-bit: at most two 32-bit words of run entropy.
SEED_LIMIT = 1 << 64

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32 = np.uint64(_MASK32)
_ONE = np.uint64(1)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53, as in numpy's next_double


def _check_seed(master_seed: int) -> int:
    master_seed = int(master_seed)
    if not 0 <= master_seed < SEED_LIMIT:
        raise ValueError(f"master seed must be in [0, 2**64), got {master_seed}")
    return master_seed


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given master seed and key path.

    The one place the package imports `numpy.random`.
    """
    master_seed = _check_seed(master_seed)
    key = tuple(int(p) for p in path)
    if any(p < 0 for p in key):
        raise ValueError(f"stream path must be nonnegative integers, got {key}")
    from numpy.random import SeedSequence, default_rng

    return default_rng(SeedSequence(master_seed, spawn_key=key))


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


def _pcg_seeds(master_seed: int, spawn: list[np.ndarray]) -> list[np.ndarray]:
    """`SeedSequence(master_seed, spawn_key=key).generate_state(4, uint64)`.

    `spawn` holds the 32-bit words of the spawn keys, one uint32 array per
    word position, over keys that all have the same number of words; with
    no words it is the generator with no spawn key.  Returns the four state
    words, each an array over keys (of one element without a spawn key).
    """
    hashmix = _HashMix(_INIT_A, _MULT_A)
    # Run entropy padded to the pool size, hashed into the pool and mixed;
    # this part is the same for every key.  SeedSequence pads only when a
    # spawn key is present, but hashes a missing pool word as 0 without
    # one, so padding 64-bit entropy changes nothing.
    run = _words(master_seed)
    run += [0] * (_POOL_SIZE - len(run))
    pool = [hashmix(word) for word in run]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # Each spawn-key word mixes into every pool word, each through its own
    # hashmix call; the pool broadcasts from one element to every key.
    pool = [np.full(1, word, dtype=np.uint32) for word in pool]
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


def _multiplier(mult: int) -> tuple[np.uint64, ...]:
    """A 128-bit LCG multiplier as `_lcg_step` takes it: its 64-bit halves,
    and its low half as 32-bit limbs for the high word of the 64x64-bit product."""
    return (
        np.uint64(mult >> 64),
        np.uint64(mult & _MASK64),
        np.uint64(mult & _MASK32),
        np.uint64((mult >> 32) & _MASK32),
    )


_PCG_STEP = _multiplier(_PCG_MULT)


def _lcg_step(hi, lo, mult, inc_hi, inc_lo):
    """state * multiplier + inc (mod 2**128) on (hi, lo) uint64 arrays.

    `mult` is a `_multiplier`; `_PCG_STEP` makes this one PCG64 step.
    """
    mult_hi, mult_lo, mult_lo_0, mult_lo_1 = mult
    lo_0 = lo & _U32
    lo_1 = lo >> np.uint64(32)
    p00 = lo_0 * mult_lo_0
    p01 = lo_0 * mult_lo_1
    p10 = lo_1 * mult_lo_0
    mid = (p00 >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
    carry_hi = lo_1 * mult_lo_1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
    mul_hi = carry_hi + (mid >> np.uint64(32)) + lo * mult_hi + hi * mult_lo
    return _add128(mul_hi, lo * mult_lo, inc_hi, inc_lo)


def _next_double(hi, lo) -> np.ndarray:
    """XSL-RR output of the (already stepped) state, then numpy's next_double."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT


def _pcg_state(master_seed: int, spawn: list[np.ndarray]):
    """State and increment (hi, lo, inc_hi, inc_lo) of the seeded PCG64
    generators of `_pcg_seeds`' keys, before their first draw."""
    w0, w1, w2, w3 = _pcg_seeds(master_seed, spawn)
    # pcg_setseq_128_srandom_r: state = 0, inc = initseq << 1 | 1, step,
    # state += initstate, step; with initstate = w0:w1 and initseq = w2:w3.
    inc_hi = (w2 << _ONE) | (w3 >> np.uint64(63))
    inc_lo = (w3 << _ONE) | _ONE
    hi, lo = _add128(inc_hi, inc_lo, w0, w1)
    hi, lo = _lcg_step(hi, lo, _PCG_STEP, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _block_segment(master_seed: int, trials: np.ndarray, stream: int, out: np.ndarray) -> None:
    # The spawn key (t, stream): the trial's words, then the stream's.
    width = len(_words(int(trials[0])))
    spawn = [((trials >> np.uint64(32 * k)) & _U32).astype(np.uint32) for k in range(width)]
    spawn += [np.full(trials.size, word, dtype=np.uint32) for word in _words(stream)]
    hi, lo, inc_hi, inc_lo = _pcg_state(master_seed, spawn)
    for j in range(out.shape[1]):
        hi, lo = _lcg_step(hi, lo, _PCG_STEP, inc_hi, inc_lo)
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


def _stride(mult: int, total: int, inc: int) -> tuple:
    """`_lcg_step`'s (mult, inc_hi, inc_lo) for the jump s -> mult s + total inc."""
    shift = (total * inc) & _MASK128
    return _multiplier(mult), np.uint64(shift >> 64), np.uint64(shift & _MASK64)


#: Lanes of `MasterStream`: lane k computes draws k, k + 4096, k + 8192, ...
_LANES = 1 << 12


class MasterStream:
    """The `random()` draws of `substream(master_seed)`, in array arithmetic.

    Consecutive `random(size)` calls return, bit for bit, what consecutive
    `substream(master_seed).random(size)` calls of the same sizes would.
    Draws are computed 4096 at a time: lane k holds the LCG state of draw
    k of the current round, and a round moves every lane 4096 steps ahead
    at once.  m LCG steps map a state s to A^m s + G_m inc (mod 2**128),
    with A the multiplier and G_m = 1 + A + ... + A^(m-1), so the lanes
    start from draw 0 by doubling (lanes [0, m) jumped by m steps are
    lanes [m, 2m)) and every round is one jump of (A^4096, G_4096 inc).
    """

    def __init__(self, master_seed: int) -> None:
        hi, lo, inc_hi, inc_lo = _pcg_state(_check_seed(master_seed), [])
        hi, lo = _lcg_step(hi, lo, _PCG_STEP, inc_hi, inc_lo)
        inc = (int(inc_hi[0]) << 64) | int(inc_lo[0])
        mult, total = _PCG_MULT, 1
        while hi.size < _LANES:
            jumped_hi, jumped_lo = _lcg_step(hi, lo, *_stride(mult, total, inc))
            hi, lo = np.concatenate((hi, jumped_hi)), np.concatenate((lo, jumped_lo))
            mult, total = (mult * mult) & _MASK128, (total * (mult + 1)) & _MASK128
        self._hi, self._lo, self._jump = hi, lo, _stride(mult, total, inc)
        self._round = _next_double(hi, lo)
        self._next = 0

    def random(self, size: int) -> np.ndarray:
        """The next `size` uniform draws on [0, 1)."""
        out = np.empty(size, dtype=np.float64)
        done = 0
        while done < size:
            if self._next == _LANES:
                self._hi, self._lo = _lcg_step(self._hi, self._lo, *self._jump)
                self._round = _next_double(self._hi, self._lo)
                self._next = 0
            take = min(size - done, _LANES - self._next)
            out[done:done + take] = self._round[self._next:self._next + take]
            done += take
            self._next += take
        return out
