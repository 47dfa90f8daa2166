"""Statistical helper correctness."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    empirical_cdf,
    fraction,
    hamming_distance,
    hamming_weight,
    mean_confidence_interval,
    pairwise_hamming_distances,
)
from repro.errors import InsufficientDataError


class TestHamming:
    def test_distance_identical(self):
        bits = np.array([1, 0, 1, 1], dtype=bool)
        assert hamming_distance(bits, bits) == 0.0

    def test_distance_complement(self):
        bits = np.array([1, 0, 1, 1], dtype=bool)
        assert hamming_distance(bits, ~bits) == 1.0

    def test_distance_half(self):
        a = np.array([1, 1, 0, 0], dtype=bool)
        b = np.array([1, 0, 1, 0], dtype=bool)
        assert hamming_distance(a, b) == 0.5

    def test_distance_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance([1, 0], [1, 0, 1])

    def test_distance_empty(self):
        with pytest.raises(InsufficientDataError):
            hamming_distance([], [])

    def test_weight(self):
        assert hamming_weight([1, 1, 0, 0]) == 0.5
        assert hamming_weight([0, 0, 0, 0]) == 0.0

    def test_pairwise_count(self):
        responses = [np.zeros(8, dtype=bool) for _ in range(4)]
        distances = pairwise_hamming_distances(responses)
        assert distances.shape == (6,)  # C(4,2)
        assert (distances == 0).all()

    def test_pairwise_needs_two(self):
        with pytest.raises(InsufficientDataError):
            pairwise_hamming_distances([np.zeros(4, dtype=bool)])

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            hamming_weight(np.zeros((2, 2), dtype=bool))


class TestCdf:
    def test_sorted_output(self):
        values, fractions = empirical_cdf([3.0, 1.0, 2.0])
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert fractions.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            empirical_cdf([])


class TestConfidenceInterval:
    def test_point_estimate_for_single_sample(self):
        assert mean_confidence_interval([2.5]) == (2.5, 2.5, 2.5)

    def test_degenerate_for_constant_samples(self):
        mean, low, high = mean_confidence_interval([1.0, 1.0, 1.0])
        assert mean == low == high == 1.0

    def test_interval_brackets_mean(self):
        mean, low, high = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert low < mean < high
        assert mean == pytest.approx(2.5)

    def test_wider_confidence_wider_interval(self):
        data = [1.0, 2.0, 3.0, 4.0]
        _, low95, high95 = mean_confidence_interval(data, 0.95)
        _, low99, high99 = mean_confidence_interval(data, 0.99)
        assert low99 < low95 and high99 > high95

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            mean_confidence_interval([])

    def test_refuses_confidence_outside_unit_interval(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], 1.5)


def _scipy_interval(values, confidence):
    """The interval as ``scipy.stats`` computes it (``repro`` may not
    import ``scipy.stats``; the tests may)."""
    array = np.asarray(values, dtype=float)
    mean = float(np.mean(array))
    if array.size == 1:
        return mean, mean, mean
    sem = scipy.stats.sem(array)
    if sem == 0:
        return mean, mean, mean
    lower, upper = scipy.stats.t.interval(
        confidence, array.size - 1, loc=mean, scale=sem)
    return mean, float(lower), float(upper)


#: Samples of three magnitudes, with small integers mixed in so values
#: repeat; whole-sample constants and single samples reach the point
#: estimates.
_element = st.one_of(st.floats(-1e-6, 1e-6), st.floats(-1.0, 1.0),
                     st.floats(-1e6, 1e6), st.integers(-3, 3).map(float))
_samples = st.one_of(
    st.lists(_element, min_size=2, max_size=200),
    st.tuples(_element, st.integers(2, 200)).map(
        lambda value_count: [value_count[0]] * value_count[1]),
    st.lists(_element, min_size=1, max_size=1))


class TestConfidenceIntervalMatchesScipyStats:
    @settings(max_examples=300, deadline=None)
    @given(_samples, st.sampled_from([0.9, 0.95, 0.99]))
    def test_bit_identical_to_t_interval(self, values, confidence):
        got = mean_confidence_interval(values, confidence)
        expected = _scipy_interval(values, confidence)
        assert [bound.hex() for bound in got] == [
            bound.hex() for bound in expected]


class TestFraction:
    def test_fraction(self):
        assert fraction([True, False, True, True]) == 0.75

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            fraction([])
