"""Statistical helpers shared by the experiments.

Implements the metrics the paper reports: normalized Hamming distance and
weight (PUF, Section VI-B), empirical CDFs (F-MAJ stability, Figure 10),
and mean confidence intervals (the shaded bands of Figure 9).

The confidence interval calls ``scipy.special.stdtrit``, the Student-t
quantile that ``scipy.stats.t`` itself evaluates, with the standard
error ``scipy.stats.sem`` computes, so its bounds are bit-identical to
``scipy.stats.t.interval``'s without importing ``scipy.stats``, which
``import repro`` must not load (``docs/performance.md``, "Cold start").
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.special import stdtrit

from ..errors import InsufficientDataError

__all__ = [
    "hamming_distance",
    "hamming_weight",
    "pairwise_hamming_distances",
    "empirical_cdf",
    "mean_confidence_interval",
    "fraction",
]


def _as_bits(bits: Sequence[bool]) -> np.ndarray:
    array = np.asarray(bits, dtype=bool)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-D bit vector, got shape {array.shape}")
    return array


def hamming_distance(a: Sequence[bool], b: Sequence[bool]) -> float:
    """Normalized Hamming distance: differing bits / total bits."""
    bits_a, bits_b = _as_bits(a), _as_bits(b)
    if bits_a.shape != bits_b.shape:
        raise ValueError(f"length mismatch: {bits_a.shape} vs {bits_b.shape}")
    if bits_a.size == 0:
        raise InsufficientDataError("cannot compute HD of empty vectors")
    return float(np.mean(bits_a ^ bits_b))


def hamming_weight(bits: Sequence[bool]) -> float:
    """Fraction of one-bits."""
    array = _as_bits(bits)
    if array.size == 0:
        raise InsufficientDataError("cannot compute weight of an empty vector")
    return float(np.mean(array))


def pairwise_hamming_distances(responses: Sequence[Sequence[bool]]) -> np.ndarray:
    """All pairwise normalized HDs among a set of equal-length responses.

    Each response may also be a 2-D (challenges x bits) matrix; the HD is
    then taken per challenge and the result ordered pair-major,
    challenge-minor — the convention of the PUF inter-HD studies.  The
    pair enumeration is the upper triangle in row-major order, computed
    as one broadcast XOR instead of a Python pair loop.
    """
    arrays = [np.asarray(r, dtype=bool) for r in responses]
    if any(array.ndim not in (1, 2) for array in arrays):
        shape = next(a.shape for a in arrays if a.ndim not in (1, 2))
        raise ValueError(f"expected a 1-D bit vector, got shape {shape}")
    stacked = np.asarray(arrays)
    count = stacked.shape[0]
    if count < 2:
        raise InsufficientDataError("need at least two responses for pairwise HD")
    i, j = np.triu_indices(count, k=1)
    return np.mean(stacked[i] ^ stacked[j], axis=-1).reshape(-1)


def empirical_cdf(values: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative fractions)."""
    array = np.sort(np.asarray(list(values), dtype=float))
    if array.size == 0:
        raise InsufficientDataError("cannot compute the CDF of no samples")
    fractions = np.arange(1, array.size + 1) / array.size
    return array, fractions


def mean_confidence_interval(values: Iterable[float],
                             confidence: float = 0.95,
                             ) -> tuple[float, float, float]:
    """(mean, lower, upper) of a t-distribution confidence interval.

    Each bound is ``stdtrit(df, q) * sem + mean`` at ``q = (1 -/+
    confidence) / 2``: the arithmetic of ``scipy.stats.t.interval(
    confidence, df, loc=mean, scale=scipy.stats.sem(values))``, operation
    for operation.  With a single sample, or no spread, the interval
    degenerates to the point estimate.
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise InsufficientDataError("cannot compute a CI of no samples")
    mean = float(np.mean(array))
    if array.size == 1:
        return mean, mean, mean
    sem = np.std(array, ddof=1) / array.size ** 0.5
    if sem == 0:
        return mean, mean, mean
    if confidence < 0.0 or confidence > 1.0:
        raise ValueError(f"confidence must lie in [0, 1], got {confidence!r}")
    df = array.size - 1
    lower = stdtrit(df, (1.0 - confidence) / 2) * sem + mean
    upper = stdtrit(df, (1.0 + confidence) / 2) * sem + mean
    return mean, float(lower), float(upper)


def fraction(mask: Sequence[bool]) -> float:
    """Fraction of True entries in a boolean mask."""
    array = np.asarray(mask, dtype=bool)
    if array.size == 0:
        raise InsufficientDataError("cannot compute a fraction of no entries")
    return float(np.mean(array))
