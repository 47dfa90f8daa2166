"""NIST tests 7 and 8: non-overlapping and overlapping template matching."""

from __future__ import annotations


import numpy as np

from .common import TestResult, as_bits, igamc, not_applicable

__all__ = ["aperiodic_templates", "non_overlapping_template_sweep",
           "non_overlapping_template_test", "overlapping_template_test"]

#: Default 9-bit aperiodic template from the NIST reference set.
DEFAULT_TEMPLATE: tuple[int, ...] = (0, 0, 0, 0, 0, 0, 0, 0, 1)


def _is_aperiodic(bits: tuple[int, ...]) -> bool:
    """A template is aperiodic if no proper prefix equals the suffix of
    the same length (it cannot overlap a shifted copy of itself)."""
    m = len(bits)
    return all(bits[shift:] != bits[: m - shift] for shift in range(1, m))


def aperiodic_templates(m: int = 9) -> tuple[tuple[int, ...], ...]:
    """All aperiodic templates of length ``m`` (148 for m=9).

    The NIST reference distribution ships these as data files; they are
    fully determined by the aperiodicity condition, so we generate them.
    """
    templates = []
    for value in range(1 << m):
        bits = tuple(value >> (m - 1 - i) & 1 for i in range(m))
        if _is_aperiodic(bits):
            templates.append(bits)
    return tuple(templates)


def _block_matches(blocks: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Per-block boolean match matrix, one sliding-window pass for all
    blocks at once."""
    windows = np.lib.stride_tricks.sliding_window_view(
        blocks, template.size, axis=1)
    return np.all(windows == template, axis=2)


def _greedy_count(matches: np.ndarray, m: int) -> int:
    """Non-overlapping scan restarting ``m`` after each accepted match."""
    count = 0
    next_free = 0
    for position in np.flatnonzero(matches):
        if position >= next_free:
            count += 1
            next_free = int(position) + m
    return count


def non_overlapping_template_test(sequence,
                                  template: tuple[int, ...] = DEFAULT_TEMPLATE,
                                  n_blocks: int = 8) -> TestResult:
    """Non-overlapping template matching (section 2.7).

    The sequence splits into ``n_blocks`` blocks; within a block the search
    restarts *after* each match (non-overlapping scan).  An aperiodic
    template can never match twice within ``m`` positions (its prefixes
    and suffixes differ by construction), so for the NIST template set
    the non-overlapping count equals the plain match count and the whole
    test is one broadcast comparison; the positional scan only runs for
    caller-supplied periodic templates.
    """
    bits = as_bits(sequence)
    tmpl = np.asarray(template, dtype=np.uint8)
    m = tmpl.size
    n = bits.size
    block_size = n // n_blocks
    if block_size < 2 * m:
        return not_applicable(
            "non-overlapping-template",
            f"block size {block_size} too small for template of {m}")
    blocks = bits[:n_blocks * block_size].reshape(n_blocks, block_size)
    matches = _block_matches(blocks, tmpl)
    if _is_aperiodic(tuple(int(bit) for bit in tmpl)):
        counts = np.count_nonzero(matches, axis=1)
    else:
        counts = np.asarray([_greedy_count(row, m) for row in matches])
    mean = (block_size - m + 1) / 2.0 ** m
    variance = block_size * (1.0 / 2.0 ** m - (2.0 * m - 1.0) / 2.0 ** (2 * m))
    chi_squared = float(np.sum((counts - mean) ** 2 / variance))
    p_value = igamc(n_blocks / 2.0, chi_squared / 2.0)
    return TestResult("non-overlapping-template", (p_value,))


def non_overlapping_template_sweep(sequence, m: int = 9,
                                   n_blocks: int = 8,
                                   max_templates: int | None = None,
                                   ) -> TestResult:
    """The full NIST variant: one p-value per aperiodic template.

    The reference suite evaluates all 148 aperiodic 9-bit templates and
    reports each p-value; the test passes under the second-level criteria
    (or, single-sequence, when the sub-alpha count stays within the
    binomial band — handled by the assessment layer).  ``max_templates``
    subsamples evenly for quick runs.
    """
    bits = as_bits(sequence)
    templates = aperiodic_templates(m)
    if max_templates is not None and len(templates) > max_templates:
        stride = len(templates) // max_templates
        templates = templates[::stride][:max_templates]
    p_values = []
    for template in templates:
        result = non_overlapping_template_test(bits, template, n_blocks)
        if not result.applicable:
            return not_applicable("non-overlapping-template-sweep",
                                  result.note)
        p_values.extend(result.p_values)
    return TestResult("non-overlapping-template-sweep", tuple(p_values),
                      note=f"{len(templates)} templates")


# Section 2.8 class probabilities for m=9, M=1032 (K=5).
_OVERLAP_PI = (0.364091, 0.185659, 0.139381, 0.100571, 0.070432, 0.139865)
_OVERLAP_K = 5
_OVERLAP_M = 1032


def overlapping_template_test(sequence, template_length: int = 9) -> TestResult:
    """Overlapping template matching with the all-ones template (section 2.8)."""
    bits = as_bits(sequence)
    n = bits.size
    n_blocks = n // _OVERLAP_M
    if n_blocks < 1 or n < 10 ** 6 // 10:
        return not_applicable(
            "overlapping-template", f"needs n >= 100000, got {n}")
    tmpl = np.ones(template_length, dtype=np.uint8)
    blocks = bits[:n_blocks * _OVERLAP_M].reshape(n_blocks, _OVERLAP_M)
    occurrences = np.count_nonzero(_block_matches(blocks, tmpl), axis=1)
    counts = np.bincount(np.minimum(occurrences, _OVERLAP_K),
                         minlength=_OVERLAP_K + 1)
    expected = np.asarray(_OVERLAP_PI) * n_blocks
    chi_squared = float(np.sum((counts - expected) ** 2 / expected))
    p_value = igamc(_OVERLAP_K / 2.0, chi_squared / 2.0)
    return TestResult("overlapping-template", (p_value,))
