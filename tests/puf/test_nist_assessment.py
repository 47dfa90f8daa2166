"""NIST second-level (multi-sequence) assessment."""

import numpy as np
import pytest
from scipy.stats import binom

from repro.puf.nist import TestAssessment, assess_sequences
from repro.puf.nist.assessment import UNIFORMITY_THRESHOLD


def make_assessment(p_values, n=10, alpha=0.01):
    return TestAssessment(name="t", p_values=tuple(p_values),
                          n_sequences=n, alpha=alpha)


class TestTestAssessment:
    def test_all_good_p_values_pass(self):
        assessment = make_assessment([0.1 * k + 0.05 for k in range(10)])
        assert assessment.proportion == 1.0
        assert assessment.passed()

    def test_proportion_band(self):
        assessment = make_assessment([0.5] * 100)
        low, high = assessment.proportion_band
        assert low == pytest.approx(0.99 - 3 * np.sqrt(0.0099 / 100))
        assert high == 1.0

    def test_too_many_rejections_fail(self):
        assessment = make_assessment([0.5] * 7 + [0.001] * 3)
        assert not assessment.proportion_ok
        assert not assessment.passed()

    def test_non_uniform_p_values_fail(self):
        # All p-values piled in one bin: massive uniformity chi-squared.
        assessment = make_assessment([0.55 + 1e-4 * k for k in range(200)],
                                     n=200)
        assert assessment.proportion_ok
        assert assessment.uniformity_p < UNIFORMITY_THRESHOLD
        assert not assessment.passed()

    def test_inapplicable_when_no_p_values(self):
        assessment = make_assessment([])
        assert not assessment.applicable
        assert not assessment.passed()
        assert "SKIPPED" in assessment.summary()

    def test_summary_contains_verdict(self):
        good = make_assessment([0.08 * k + 0.05 for k in range(11)], n=11)
        assert "PASS" in good.summary()

    def test_no_failures_allowed_without_p_values(self):
        assert make_assessment([]).max_allowed_failures == 0

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1])
    def test_max_allowed_failures_is_the_binomial_quantile(self, alpha):
        """The bound ``repro`` computes with ``scipy.special.bdtr`` is
        ``scipy.stats.binom.ppf(0.999, m, alpha)`` at every m."""
        counts = np.arange(1, 3001)
        expected = binom.ppf(0.999, counts, alpha).astype(int).tolist()
        got = [make_assessment((0.5,) * m, n=m, alpha=alpha)
               .max_allowed_failures for m in counts.tolist()]
        assert got == expected


@pytest.mark.slow
class TestAssessSequences:
    def test_random_sequences_pass(self):
        rng = np.random.default_rng(31)
        sequences = [rng.integers(0, 2, 110_000).astype(np.uint8)
                     for _ in range(8)]
        assessment = assess_sequences(sequences)
        assert assessment.all_passed
        assert assessment.n_sequences == 8
        assert "second-level" in assessment.format_table()

    def test_biased_sequences_fail(self):
        rng = np.random.default_rng(32)
        sequences = [(rng.random(110_000) < 0.47).astype(np.uint8)
                     for _ in range(6)]
        assessment = assess_sequences(sequences)
        assert not assessment.all_passed

    def test_needs_two_sequences(self):
        with pytest.raises(ValueError):
            assess_sequences([np.ones(1000, dtype=np.uint8)])

    def test_defective_sequences_fail_proportion(self):
        # A single bad sequence among few is not distinguishable from the
        # expected 1% false-reject rate at 99.9% confidence (the exact
        # binomial criterion tolerates it); three bad out of eight is.
        rng = np.random.default_rng(33)
        sequences = [rng.integers(0, 2, 110_000).astype(np.uint8)
                     for _ in range(5)]
        sequences.extend(np.tile([0, 1], 55_000).astype(np.uint8)
                         for _ in range(3))
        assessment = assess_sequences(sequences)
        runs = next(a for a in assessment.assessments if a.name == "runs")
        assert not runs.passed()
        assert not assessment.all_passed

    def test_single_defect_among_few_is_tolerated(self):
        rng = np.random.default_rng(34)
        sequences = [rng.integers(0, 2, 110_000).astype(np.uint8)
                     for _ in range(7)]
        sequences.append(np.tile([0, 1], 55_000).astype(np.uint8))
        assessment = assess_sequences(sequences)
        runs = next(a for a in assessment.assessments if a.name == "runs")
        # One hard failure out of eight sits inside the binomial band.
        assert runs.max_allowed_failures >= 1
