"""Bit-exactness tests for the PCG64 stream-jump module.

The leak fast path of the batched engine depends on
:mod:`repro.dram.pcg_jump` predicting exactly the values NumPy's
``Generator.uniform`` would produce at sparse positions of a block draw,
and leaving the generator in exactly the post-draw state.  These tests
pin that contract against the real generator, including the fallback
paths for unpredictable streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.pcg_jump import (
    PCG_MULT,
    JumpGroup,
    UniformBlockJump,
    skip_coefficients,
)

MASK128 = (1 << 128) - 1


def _state_of(bit_generator) -> tuple[int, int]:
    raw = bit_generator.state["state"]
    return raw["state"], raw["inc"]


class TestSkipCoefficients:
    def test_matches_naive_iteration(self):
        rng = np.random.default_rng(7)
        state, inc = _state_of(rng.bit_generator)
        for steps in (0, 1, 2, 3, 5, 17, 100, 12345):
            mult, plus = skip_coefficients(steps)
            expected = state
            for _ in range(steps):
                expected = (PCG_MULT * expected + inc) & MASK128
            assert (mult * state + plus * inc) & MASK128 == expected

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            skip_coefficients(-1)

    def test_agrees_with_advance(self):
        reference = np.random.default_rng(11)
        jumped = np.random.default_rng(11)
        reference.uniform(-1.0, 1.0, size=64)
        jumped.bit_generator.advance(64)
        assert (_state_of(reference.bit_generator)
                == _state_of(jumped.bit_generator))


class TestUniformBlockJump:
    @given(st.integers(0, 2 ** 32), st.integers(1, 256),
           st.sets(st.integers(0, 255), min_size=0, max_size=16))
    @settings(deadline=None, max_examples=50)
    def test_predicts_block_draw(self, seed, extra, raw_offsets):
        block = 256
        offsets = sorted(raw_offsets)
        jump = UniformBlockJump(offsets, block)
        reference = np.random.default_rng(seed)
        predicted_gen = np.random.default_rng(seed)

        full = reference.uniform(-1.0, 1.0, size=block)
        predicted = jump.values(predicted_gen.bit_generator)

        assert predicted is not None
        assert np.array_equal(predicted, full[offsets])
        assert (_state_of(reference.bit_generator)
                == _state_of(predicted_gen.bit_generator))
        # The streams stay in lock-step after the jump.
        assert np.array_equal(reference.uniform(size=extra % 7 + 1),
                              predicted_gen.uniform(size=extra % 7 + 1))

    def test_rejects_offsets_outside_block(self):
        with pytest.raises(ValueError):
            UniformBlockJump([8], 8)

    def test_buffered_half_word_is_unpredictable(self):
        rng = np.random.default_rng(3)
        # A 32-bit draw leaves a buffered half-word that advance() would
        # drop; the jump must refuse and leave the stream untouched.
        rng.integers(0, 2 ** 16, dtype=np.uint32)
        assert rng.bit_generator.state.get("has_uint32", 0)
        jump = UniformBlockJump([0, 5], 16)
        assert not jump.predictable(rng.bit_generator)
        before = rng.bit_generator.state
        assert jump.values(rng.bit_generator) is None
        assert rng.bit_generator.state == before

    def test_non_pcg64_is_unpredictable(self):
        gen = np.random.Generator(np.random.MT19937(5))
        jump = UniformBlockJump([1], 4)
        assert not jump.predictable(gen.bit_generator)
        assert jump.values(gen.bit_generator) is None


class TestJumpGroup:
    def test_flat_values_match_member_jumps(self):
        block = 64
        jumps = [UniformBlockJump([1, 7, 40], block),
                 UniformBlockJump([0], block),
                 UniformBlockJump([63, 13], block)]
        group = JumpGroup(jumps)
        group_gens = [np.random.default_rng(seed).bit_generator
                      for seed in (1, 2, 3)]
        solo_gens = [np.random.default_rng(seed).bit_generator
                     for seed in (1, 2, 3)]

        flat = group.values_flat(group_gens)
        solo = np.concatenate([jump.values(bg)
                               for jump, bg in zip(jumps, solo_gens)])
        assert np.array_equal(flat, solo)
        for grouped, alone in zip(group_gens, solo_gens):
            assert _state_of(grouped) == _state_of(alone)

    def test_fallback_touches_no_stream(self):
        """``None`` leaves every member where it was, predictable or not.

        ``BatchedSubArray.leak`` answers ``None`` by drawing every lane
        for real, which is exact only if no stream was advanced first.
        Two unpredictable members: a PCG64 holding a buffered half-word,
        and a generator that is not PCG64 at all.
        """
        block = 32
        group = JumpGroup([UniformBlockJump([2], block),
                           UniformBlockJump([3], block),
                           UniformBlockJump([5], block)])
        buffered = np.random.default_rng(10)
        buffered.integers(0, 4, dtype=np.uint32)
        for odd in (buffered.bit_generator, np.random.PCG64DXSM(10)):
            members = [np.random.default_rng(9).bit_generator, odd,
                       np.random.default_rng(11).bit_generator]
            before = [bg.state for bg in members]
            assert group.values_flat(members) is None
            assert [bg.state for bg in members] == before

    def test_requires_matching_ranges(self):
        with pytest.raises(ValueError):
            JumpGroup([UniformBlockJump([0], 4),
                       UniformBlockJump([0], 4, low=0.0, high=1.0)])

    def test_requires_one_generator_per_jump(self):
        group = JumpGroup([UniformBlockJump([0], 4)])
        with pytest.raises(ValueError):
            group.values_flat([])
