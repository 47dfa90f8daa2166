"""Bit-exact PCG64 stream jumps for sparse uniform draws.

The scalar leakage model draws one ``uniform(-1, 1)`` value per cell of a
sub-array on every leak event, but only the (sparse) VRT cells ever *use*
their value — the rest of the block exists purely to advance the noise
stream to where the next consumer expects it.  The batched engine must
consume lane streams identically, yet paying the full block generation
per lane per leak event makes leakage the dominant cost of a batched run.

PCG64 makes the draw skippable: its core is a 128-bit LCG
(``s' = M*s + inc mod 2**128``), so the state after ``k`` steps is the
affine map ``A_k*s + G_k*inc`` with ``A_k = M**k`` and
``G_k = 1 + M + ... + M**(k-1)``, both computable in ``O(log k)``.
:class:`UniformBlockJump` precomputes those coefficients for the offsets
of interest inside a fixed-size block, evaluates the generator's *output
function* (XSL-RR, then the 53-bit double conversion NumPy's ``uniform``
applies) vectorized over all offsets, and skips the generator past the
block with :meth:`~numpy.random.PCG64.advance` — producing bit-for-bit
the values and end state of a real ``uniform(size=block)`` call at a
fraction of the cost.

The 128-bit arithmetic is vectorized with four 32-bit limbs per value in
``uint64`` slots, so partial products and carry accumulations never
overflow.  Anything that is not a plain :class:`numpy.random.PCG64` (or
that holds a buffered 32-bit half-word, which ``advance`` would drop)
reports itself as not predictable and callers fall back to a real draw.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

__all__ = ["PCG_MULT", "JumpGroup", "UniformBlockJump", "skip_coefficients"]

#: The default PCG64 multiplier (pcg_setseq_128, as shipped by NumPy).
PCG_MULT: int = 0x2360ED051FC65DA44385DF649FCCF645

_MASK128 = (1 << 128) - 1
_LIMB = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
#: NumPy's next_double: ``(next_uint64 >> 11) * 2**-53``.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


@functools.lru_cache(maxsize=65536)
def skip_coefficients(steps: int) -> tuple[int, int]:
    """Affine coefficients ``(A, G)`` of ``steps`` PCG64 state steps.

    ``state_after = (A * state + G * inc) mod 2**128``.  Standard
    square-and-multiply over the affine composition, O(log steps).
    The coefficients depend only on the step count — never on a stream's
    state or increment — so they are memoized: trial batches build one
    jump table per lane over the *same* VRT offsets, and every lane
    after the first hits the cache.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    acc_mult, acc_plus = 1, 0
    cur_mult, cur_plus = PCG_MULT, 1
    while steps:
        if steps & 1:
            acc_mult = (cur_mult * acc_mult) & _MASK128
            acc_plus = (cur_mult * acc_plus + cur_plus) & _MASK128
        cur_plus = ((cur_mult + 1) * cur_plus) & _MASK128
        cur_mult = (cur_mult * cur_mult) & _MASK128
        steps >>= 1
    return acc_mult, acc_plus


def _limbs(value: int) -> np.ndarray:
    """128-bit int -> four 32-bit limbs (little-endian) in uint64 slots."""
    return np.array([(value >> (32 * k)) & 0xFFFFFFFF for k in range(4)],
                    dtype=np.uint64)


def _mul128(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Limb-wise ``(n, 4) * (4,)``-or-``(n, 4)`` product mod 2**128.

    Limbs stay below 2**32, so every partial product fits a uint64 and
    per-limb accumulations stay below 2**35 before carry propagation.
    """
    z = np.zeros(x.shape, dtype=np.uint64)
    for i in range(4):
        for j in range(4 - i):
            p = x[:, i] * y[..., j]
            z[:, i + j] += p & _LIMB
            if i + j + 1 < 4:
                z[:, i + j + 1] += p >> _U32
    for k in range(3):
        z[:, k + 1] += z[:, k] >> _U32
        z[:, k] &= _LIMB
    z[:, 3] &= _LIMB
    return z


def _add128(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = x + y
    for k in range(3):
        z[:, k + 1] += z[:, k] >> _U32
        z[:, k] &= _LIMB
    z[:, 3] &= _LIMB
    return z


def _output_xsl_rr(state: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output function over limb-encoded states."""
    lo = state[:, 0] | (state[:, 1] << _U32)
    hi = state[:, 2] | (state[:, 3] << _U32)
    rot = hi >> np.uint64(58)
    word = hi ^ lo
    return (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))


class UniformBlockJump:
    """Predict sparse ``uniform(low, high)`` draws inside one block.

    ``offsets`` are flat draw indices (C-order) inside a conceptual
    ``uniform(size=block_size)`` call; :meth:`values` returns the values
    those positions would receive and leaves the generator state exactly
    where the full draw would have left it.
    """

    def __init__(self, offsets: Sequence[int], block_size: int, *,
                 low: float = -1.0, high: float = 1.0) -> None:
        offsets = [int(p) for p in offsets]
        if any(not 0 <= p < block_size for p in offsets):
            raise ValueError("offsets must lie inside the block")
        self.block_size = int(block_size)
        self._low = float(low)
        self._range = float(high) - float(low)
        # Draw i consumes state step i+1 (PCG64 steps, then outputs).
        coeffs = [skip_coefficients(p + 1) for p in offsets]
        self._mult = np.array([_limbs(a) for a, _ in coeffs],
                              dtype=np.uint64).reshape(-1, 4)
        self._plus = np.array([_limbs(g) for _, g in coeffs],
                              dtype=np.uint64).reshape(-1, 4)

    @staticmethod
    def predictable(bit_generator) -> bool:
        """True when the generator's stream can be jumped bit-exactly."""
        if type(bit_generator).__name__ != "PCG64":
            return False
        return not bit_generator.state.get("has_uint32", 0)

    def values(self, bit_generator) -> np.ndarray | None:
        """Predicted draw values, advancing the stream past the block.

        Returns ``None`` (stream untouched) when the generator is not
        predictable; the caller performs the real draw instead.
        """
        if not self.predictable(bit_generator):
            return None
        raw = bit_generator.state["state"]
        state = _limbs(raw["state"])
        inc = _limbs(raw["inc"])
        at_offsets = _add128(_mul128(self._mult, state),
                             _mul128(self._plus, inc))
        word = _output_xsl_rr(at_offsets) >> np.uint64(11)
        values = self._low + self._range * (
            word.astype(np.float64) * _DOUBLE_SCALE)
        bit_generator.advance(self.block_size)
        return values


class JumpGroup:
    """Several jump tables evaluated against parallel streams in one pass.

    The per-table evaluation is cheap arithmetic on tiny limb arrays, so
    calling :meth:`UniformBlockJump.values` once per lane of a batch pays
    mostly Python/NumPy dispatch overhead.  A ``JumpGroup`` concatenates
    the member tables' coefficients once and evaluates every (table,
    stream) pair with a single set of array operations — results are the
    same bits, computed with O(1) NumPy calls instead of O(lanes).
    """

    def __init__(self, jumps: Sequence[UniformBlockJump]) -> None:
        self.jumps = list(jumps)
        if not self.jumps:
            raise ValueError("JumpGroup needs at least one jump table")
        first = self.jumps[0]
        if any((j._low, j._range) != (first._low, first._range)
               for j in self.jumps):
            raise ValueError("all jump tables must share (low, high)")
        self._low = first._low
        self._range = first._range
        counts = [j._mult.shape[0] for j in self.jumps]
        self._counts = np.array(counts, dtype=np.intp)
        self._mult = np.concatenate([j._mult for j in self.jumps])
        self._plus = np.concatenate([j._plus for j in self.jumps])
        # ``plus * inc`` is constant per stream set (PCG64 increments
        # never change), so cache it keyed by the raw increments.
        self._plus_inc_cache: dict[tuple[int, ...], np.ndarray] = {}

    def values_flat(self, bit_generators) -> np.ndarray | None:
        """All tables' predicted values concatenated.

        Returns ``None`` if any stream is not predictable, and then
        touches no stream at all: callers fall back to a real draw on
        every lane, which is exact only because nothing was advanced.
        """
        gens = list(bit_generators)
        if len(gens) != len(self.jumps):
            raise ValueError("one bit generator per jump table required")
        state_ints: list[int] = []
        inc_ints: list[int] = []
        for bg in gens:
            if type(bg).__name__ != "PCG64":
                return None
            raw = bg.state
            if raw.get("has_uint32", 0):
                return None
            inner = raw["state"]
            state_ints.append(inner["state"])
            inc_ints.append(inner["inc"])
        states = np.array(
            [[(value >> 0) & 0xFFFFFFFF, (value >> 32) & 0xFFFFFFFF,
              (value >> 64) & 0xFFFFFFFF, (value >> 96) & 0xFFFFFFFF]
             for value in state_ints], dtype=np.uint64)
        # Keyed by the raw increment ints: a hit skips the inc limb
        # extraction entirely, not just the multiply.
        inc_key = tuple(inc_ints)
        plus_inc = self._plus_inc_cache.get(inc_key)
        if plus_inc is None:
            incs = np.array(
                [[(value >> 0) & 0xFFFFFFFF, (value >> 32) & 0xFFFFFFFF,
                  (value >> 64) & 0xFFFFFFFF, (value >> 96) & 0xFFFFFFFF]
                 for value in inc_ints], dtype=np.uint64)
            plus_inc = _mul128(self._plus, np.repeat(incs, self._counts, axis=0))
            if len(self._plus_inc_cache) >= 4:
                self._plus_inc_cache.pop(next(iter(self._plus_inc_cache)))
            self._plus_inc_cache[inc_key] = plus_inc
        state_cat = np.repeat(states, self._counts, axis=0)
        at_offsets = _add128(_mul128(self._mult, state_cat), plus_inc)
        word = _output_xsl_rr(at_offsets) >> np.uint64(11)
        values = self._low + self._range * (
            word.astype(np.float64) * _DOUBLE_SCALE)
        for jump, bg in zip(self.jumps, gens):
            bg.advance(jump.block_size)
        return values
