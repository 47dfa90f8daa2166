"""NIST tests 3 and 4: runs, and longest run of ones in a block."""

from __future__ import annotations

import math

import numpy as np

from .common import TestResult, as_bits, erfc, igamc, not_applicable

__all__ = ["runs_test", "longest_run_test"]


def runs_test(sequence) -> TestResult:
    """Runs test (SP800-22 section 2.3)."""
    bits = as_bits(sequence)
    n = bits.size
    if n < 100:
        return not_applicable("runs", f"needs n >= 100, got {n}")
    proportion = float(np.mean(bits))
    if abs(proportion - 0.5) >= 2.0 / math.sqrt(n):
        # Frequency prerequisite failed; NIST reports p = 0.
        return TestResult("runs", (0.0,),
                          note="frequency prerequisite failed")
    v_obs = int(np.count_nonzero(np.diff(bits))) + 1
    numerator = abs(v_obs - 2.0 * n * proportion * (1.0 - proportion))
    denominator = 2.0 * math.sqrt(2.0 * n) * proportion * (1.0 - proportion)
    p_value = float(erfc(numerator / denominator))
    return TestResult("runs", (p_value,))


# (block size M) -> (K, clip range, category probabilities), section 2.4.
# Categories are the longest-run length clipped into [low, high]: e.g. for
# M=8 the categories are <=1, 2, 3, >=4.
_LONGEST_RUN_TABLES: dict[int, tuple[int, tuple[int, int], tuple[float, ...]]] = {
    8: (3, (1, 4), (0.2148, 0.3672, 0.2305, 0.1875)),
    128: (5, (4, 9),
          (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    10000: (6, (10, 16),
            (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
}


def longest_run_test(sequence) -> TestResult:
    """Longest run of ones in a block (section 2.4).

    Block size auto-selects per NIST: M=8 for n >= 128, M=128 for
    n >= 6272, M=10000 for n >= 750000.
    """
    bits = as_bits(sequence)
    n = bits.size
    if n < 128:
        return not_applicable("longest-run", f"needs n >= 128, got {n}")
    if n >= 750000:
        block_size = 10000
    elif n >= 6272:
        block_size = 128
    else:
        block_size = 8
    k, (low, high), probabilities = _LONGEST_RUN_TABLES[block_size]
    n_blocks = n // block_size
    blocks = bits[: n_blocks * block_size].reshape(n_blocks, block_size)

    # Longest run per block: zero positions (with sentinels) bracket runs.
    longest = np.zeros(n_blocks, dtype=int)
    padded = np.zeros((n_blocks, block_size + 2), dtype=np.int8)
    padded[:, 1:-1] = blocks
    for index in range(n_blocks):
        zero_positions = np.flatnonzero(padded[index] == 0)
        longest[index] = int(np.max(np.diff(zero_positions))) - 1

    clipped = np.clip(longest, low, high)
    counts = np.asarray(
        [int(np.count_nonzero(clipped == value)) for value in range(low, high + 1)])
    expected = np.asarray(probabilities) * n_blocks
    chi_squared = float(np.sum((counts - expected) ** 2 / expected))
    p_value = igamc(k / 2.0, chi_squared / 2.0)
    return TestResult("longest-run", (p_value,))
