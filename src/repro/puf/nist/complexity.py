"""NIST test 10: linear complexity (section 2.10).

Uses a Berlekamp-Massey implementation over GF(2) with polynomials packed
into Python integers, so the inner loop runs on C-level big-int XORs
instead of Python-level bit lists — fast enough to process hundreds of
500-bit blocks.
"""

from __future__ import annotations

import numpy as np

from .common import TestResult, as_bits, igamc, not_applicable

__all__ = ["linear_complexity_test", "berlekamp_massey"]

_K = 6
_PI = (0.010417, 0.03125, 0.125, 0.5, 0.25, 0.0625, 0.020833)


def berlekamp_massey(bits: np.ndarray) -> int:
    """Linear complexity (shortest LFSR length) of a 0/1 sequence.

    Bit ``j`` of ``c`` (and ``b``) is the connection coefficient of
    ``x**j``; bit ``j - 1`` of ``window`` is ``s[i - j]``, so the
    discrepancy ``s[i] + sum_{j>=1} c_j * s[i-j]`` is a masked popcount.
    """
    c = b = 1
    window = 0
    length = 0
    m = -1
    for i, bit in enumerate(np.asarray(bits, dtype=np.uint8).ravel().tolist()):
        if (bit + ((c >> 1) & window).bit_count()) & 1:
            previous_c = c
            c ^= b << (i - m)
            if 2 * length <= i:
                length = i + 1 - length
                m = i
                b = previous_c
        window = (window << 1) | bit
    return length


def linear_complexity_test(sequence, block_size: int = 500,
                           max_blocks: int | None = None) -> TestResult:
    """Linear complexity test over ``block_size``-bit blocks.

    ``max_blocks`` caps the work for very long streams.  NIST requires at
    least 200 blocks for the chi-squared over the seven T-classes to be
    sound (the rarest class expects only ~1% of blocks); below that the
    test reports not-applicable rather than risking false rejects.
    """
    bits = as_bits(sequence)
    n = bits.size
    n_blocks = n // block_size
    if n_blocks < 200:
        return not_applicable(
            "linear-complexity",
            f"needs >= 200 blocks of {block_size}, got {n_blocks}")
    note = ""
    if max_blocks is not None and n_blocks > max_blocks:
        note = f"subsampled {max_blocks}/{n_blocks} blocks"
        n_blocks = max_blocks
    blocks = bits[: n_blocks * block_size].reshape(n_blocks, block_size)

    mu = (block_size / 2.0
          + (9.0 + (-1.0) ** (block_size + 1)) / 36.0
          - (block_size / 3.0 + 2.0 / 9.0) / 2.0 ** block_size)
    sign = (-1.0) ** block_size

    counts = np.zeros(_K + 1, dtype=int)
    for block in blocks:
        complexity = berlekamp_massey(block)
        t = sign * (complexity - mu) + 2.0 / 9.0
        if t <= -2.5:
            counts[0] += 1
        elif t <= -1.5:
            counts[1] += 1
        elif t <= -0.5:
            counts[2] += 1
        elif t <= 0.5:
            counts[3] += 1
        elif t <= 1.5:
            counts[4] += 1
        elif t <= 2.5:
            counts[5] += 1
        else:
            counts[6] += 1

    expected = np.asarray(_PI) * n_blocks
    chi_squared = float(np.sum((counts - expected) ** 2 / expected))
    p_value = igamc(_K / 2.0, chi_squared / 2.0)
    return TestResult("linear-complexity", (p_value,), note=note)
