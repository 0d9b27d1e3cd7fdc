"""Block streams against numpy's per-trial SeedSequence + PCG64 generators.

`substream(seed, trial, stream).random(size)` is numpy's own generator, so
any future change to numpy's SeedSequence, PCG64 or `random()` makes these
comparisons fail instead of silently changing results.  `MasterStream` is
compared the same way against `substream(seed)`, the stream with no key path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqwalk import substream
from dqwalk.streams import MasterStream, block_uniforms

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


def master_calls(master_seed, sizes):
    """`MasterStream(master_seed).random` and `substream(master_seed).random`
    called with each size in turn: two lists of draws."""
    stream, reference = MasterStream(master_seed), substream(master_seed)
    return [stream.random(size) for size in sizes], [reference.random(size) for size in sizes]


#: Call sizes at the 4096-lane round boundaries.
LANE_EDGES = [1, 4095, 4096, 4097]


class TestMasterStream:
    @pytest.mark.parametrize("master_seed", [*SEED_EDGES, 7, 123456789012345])
    def test_pinned_calls_match_substream(self, master_seed):
        # Round boundaries fall inside, at the start of and at the end of
        # calls; 12289 draws span four rounds.
        ours, theirs = master_calls(master_seed, [*LANE_EDGES, 0, 12289, 3, 4093])
        for got, expected in zip(ours, theirs):
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        master_seed=st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**64 - 1)),
        sizes=st.lists(
            st.one_of(st.sampled_from([0, *LANE_EDGES]), st.integers(0, 9000)), max_size=6,
        ),
    )
    def test_random_call_sizes_match_substream(self, master_seed, sizes):
        ours, theirs = master_calls(master_seed, sizes)
        assert np.array_equal(
            np.concatenate([np.empty(0), *ours]), np.concatenate([np.empty(0), *theirs])
        )
        assert [a.size for a in ours] == sizes

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_seeds_outside_64_bits_rejected(self, master_seed):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            MasterStream(master_seed)


class TestSeedRange:
    def test_largest_seed_accepted(self):
        assert substream(2**64 - 1, 0, 0).random() < 1.0

    @pytest.mark.parametrize("master_seed", [2**64, 2**70])
    def test_seeds_beyond_64_bits_rejected(self, master_seed):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            substream(master_seed)
