"""Block streams against numpy's per-trial SeedSequence + PCG64 generators.

`substream(seed, trial, stream).random(size)` is numpy's own generator, so
any future change to numpy's SeedSequence, PCG64 or `random()` makes these
comparisons fail instead of silently changing results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqwalk import substream
from dqwalk.streams import block_uniforms

SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def per_trial(master_seed, start, count, stream, size):
    out = np.empty((count, size))
    for i in range(count):
        out[i] = substream(master_seed, start + i, stream).random(size)
    return out


class TestBlockUniforms:
    @pytest.mark.parametrize("size", [0, 1, 320])
    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("master_seed", SEED_EDGES)
    def test_pinned_blocks_match_substream(self, master_seed, stream, size):
        # The second block crosses trial 2**32, where the trial's spawn-key
        # entry grows from one 32-bit word to two.
        for start, count in ((0, 3), (2**32 - 2, 4)):
            block = block_uniforms(master_seed, start, count, stream, size)
            assert block.shape == (count, size)
            assert np.array_equal(block, per_trial(master_seed, start, count, stream, size))

    @settings(max_examples=60, deadline=None)
    @given(
        master_seed=st.integers(0, 2**64 - 1),
        start=st.one_of(st.integers(0, 2**64 - 9), st.integers(2**32 - 8, 2**32 + 8)),
        count=st.integers(0, 8),
        stream=st.integers(0, 3),
        size=st.integers(0, 6),
    )
    def test_random_blocks_match_substream(self, master_seed, start, count, stream, size):
        block = block_uniforms(master_seed, start, count, stream, size)
        assert np.array_equal(block, per_trial(master_seed, start, count, stream, size))

    @pytest.mark.parametrize(
        "args",
        [
            (2**64, 0, 1, 0, 1),
            (-1, 0, 1, 0, 1),
            (0, -1, 1, 0, 1),
            (0, 0, 1, -1, 1),
            (0, 0, -1, 0, 1),
            (0, 0, 1, 0, -1),
            (0, 2**64 - 1, 2, 0, 1),
        ],
    )
    def test_invalid_arguments_rejected(self, args):
        with pytest.raises(ValueError):
            block_uniforms(*args)


class TestSeedRange:
    def test_largest_seed_accepted(self):
        assert substream(2**64 - 1, 0, 0).random() < 1.0

    @pytest.mark.parametrize("master_seed", [2**64, 2**70])
    def test_seeds_beyond_64_bits_rejected(self, master_seed):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            substream(master_seed)
