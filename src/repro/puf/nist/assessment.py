"""Second-level NIST analysis over multiple sequences (SP800-22 sec. 4.2).

Testing a single stream at alpha = 0.01 false-rejects ~1% of the time per
test, so NIST's recommended procedure splits the data into m sequences and
applies two aggregate criteria per test:

* **proportion** — the fraction of sequences with p >= alpha must lie in
  the confidence band  (1 - alpha) ± 3 sqrt(alpha (1 - alpha) / m);

* **uniformity** — the p-values must be uniform on [0, 1): a chi-squared
  over ten bins whose own p-value (``igamc(9/2, chi2/2)``) must exceed
  1e-4.

This is the statistically sound version of the paper's "all 15 tests
passed" claim and what the multi-module experiment uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np
from scipy.special import bdtr

from .common import DEFAULT_ALPHA, TestResult, igamc
from .suite import ALL_TESTS, SuiteResult, run_all

__all__ = ["TestAssessment", "MultiSequenceAssessment", "assess_sequences"]

#: NIST's uniformity cutoff for the second-level chi-squared p-value.
UNIFORMITY_THRESHOLD: float = 1e-4


@dataclass(frozen=True)
class TestAssessment:
    """Aggregate verdict for one test across all sequences."""

    #: The Test- prefix is NIST terminology, not a pytest case.
    __test__: ClassVar[bool] = False

    name: str
    p_values: tuple[float, ...]
    n_sequences: int
    alpha: float

    @property
    def applicable(self) -> bool:
        return bool(self.p_values)

    @property
    def proportion(self) -> float:
        if not self.p_values:
            return float("nan")
        return sum(1 for p in self.p_values if p >= self.alpha) / len(self.p_values)

    @property
    def proportion_band(self) -> tuple[float, float]:
        expected = 1.0 - self.alpha
        if not self.p_values:
            return expected, expected
        margin = 3.0 * math.sqrt(self.alpha * (1.0 - self.alpha)
                                 / len(self.p_values))
        return max(0.0, expected - margin), min(1.0, expected + margin)

    @property
    def max_allowed_failures(self) -> int:
        """Largest failure count consistent with randomness at 99.9%.

        NIST's 3-sigma proportion band is a normal approximation that
        breaks down for small sequence counts (it then tolerates zero
        failures, rejecting genuinely random data with high probability).
        The exact binomial tail gives the equivalent criterion at any m:
        the smallest k whose binomial CDF reaches 0.999, which is
        ``scipy.stats.binom.ppf(0.999, m, alpha)`` without importing
        ``scipy.stats``.
        """
        if not self.p_values:
            return 0
        m = len(self.p_values)
        cdf = bdtr(np.arange(m + 1), m, self.alpha)
        return int(np.argmax(cdf >= 0.999))

    @property
    def proportion_ok(self) -> bool:
        if not self.applicable:
            return False
        failures = sum(1 for p in self.p_values if p < self.alpha)
        return failures <= self.max_allowed_failures

    @property
    def uniformity_p(self) -> float:
        """Chi-squared uniformity of the p-values over ten bins."""
        if len(self.p_values) < 2:
            return float("nan")
        counts, _ = np.histogram(self.p_values, bins=10, range=(0.0, 1.0))
        expected = len(self.p_values) / 10.0
        chi_squared = float(np.sum((counts - expected) ** 2 / expected))
        return igamc(9.0 / 2.0, chi_squared / 2.0)

    @property
    def uniformity_ok(self) -> bool:
        uniformity = self.uniformity_p
        return math.isnan(uniformity) or uniformity >= UNIFORMITY_THRESHOLD

    def passed(self) -> bool:
        return self.applicable and self.proportion_ok and self.uniformity_ok

    def summary(self) -> str:
        if not self.applicable:
            return f"{self.name:<28s}  SKIPPED (not applicable on any sequence)"
        low, _ = self.proportion_band
        verdict = "PASS" if self.passed() else "FAIL"
        uniformity = self.uniformity_p
        uniformity_text = ("n/a" if math.isnan(uniformity)
                           else f"{uniformity:.4f}")
        return (f"{self.name:<28s}  proportion={self.proportion:.3f} "
                f"(min {low:.3f})  uniformity-p={uniformity_text}  {verdict}")


@dataclass(frozen=True)
class MultiSequenceAssessment:
    """Second-level verdicts for the full suite."""

    assessments: tuple[TestAssessment, ...]
    n_sequences: int
    alpha: float

    @property
    def all_passed(self) -> bool:
        return all(a.passed() for a in self.assessments if a.applicable)

    @property
    def n_applicable(self) -> int:
        return sum(1 for a in self.assessments if a.applicable)

    def format_table(self) -> str:
        lines = [f"NIST second-level assessment over {self.n_sequences} "
                 f"sequences (alpha={self.alpha})"]
        lines.extend(a.summary() for a in self.assessments)
        passed = sum(1 for a in self.assessments if a.passed())
        lines.append(f"=> {passed}/{self.n_applicable} applicable tests passed")
        return "\n".join(lines)


def _collect(results_by_sequence: Sequence[SuiteResult],
             alpha: float) -> tuple[TestAssessment, ...]:
    n_tests = len(ALL_TESTS)
    names = [test.__name__.replace("_test", "").replace("_", "-")
             for test in ALL_TESTS]
    assessments = []
    for index in range(n_tests):
        p_values: list[float] = []
        name = names[index]
        for suite in results_by_sequence:
            result: TestResult = suite.results[index]
            name = result.name
            if result.applicable:
                # Every p-value is an independent uniform sample under the
                # null (NIST assesses multi-p tests like serial and the
                # excursions per p-value, not by their minimum).
                p_values.extend(result.p_values)
        assessments.append(TestAssessment(
            name=name, p_values=tuple(p_values),
            n_sequences=len(results_by_sequence), alpha=alpha))
    return tuple(assessments)


def assess_sequences(sequences: Sequence[np.ndarray], *,
                     alpha: float = DEFAULT_ALPHA,
                     linear_complexity_max_blocks: int | None = 400,
                     ) -> MultiSequenceAssessment:
    """Run the suite on each sequence and apply the second-level criteria."""
    if len(sequences) < 2:
        raise ValueError("second-level assessment needs >= 2 sequences")
    suites = [run_all(sequence, alpha=alpha,
                      linear_complexity_max_blocks=linear_complexity_max_blocks)
              for sequence in sequences]
    return MultiSequenceAssessment(
        assessments=_collect(suites, alpha),
        n_sequences=len(sequences),
        alpha=alpha,
    )
