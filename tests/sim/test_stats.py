"""Unit tests for the Sampler statistics collector."""

import statistics

import pytest

from repro.sim.stats import Sampler


class TestSampler:
    def test_empty_sampler(self):
        sampler = Sampler()
        assert sampler.count == 0
        assert sampler.mean == 0.0
        assert sampler.variance == 0.0

    def test_mean_matches_statistics_module(self):
        values = [1.5, 2.5, 3.0, 10.0, -4.0, 0.25]
        sampler = Sampler()
        sampler.extend(values)
        assert sampler.mean == pytest.approx(statistics.mean(values))

    def test_variance_matches_statistics_module(self):
        values = [3.0, 7.0, 7.0, 19.0, 2.0]
        sampler = Sampler()
        sampler.extend(values)
        assert sampler.variance == pytest.approx(statistics.variance(values))

    def test_min_max_total(self):
        sampler = Sampler()
        sampler.extend([5.0, -2.0, 9.0])
        assert sampler.minimum == -2.0
        assert sampler.maximum == 9.0
        assert sampler.total == 12.0

    def test_single_value_variance_zero(self):
        sampler = Sampler()
        sampler.add(7.0)
        assert sampler.variance == 0.0
        assert sampler.stdev == 0.0

    def test_stdev_matches_statistics_module(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        sampler = Sampler()
        sampler.extend(values)
        assert sampler.stdev == pytest.approx(statistics.stdev(values))

    def test_empty_sampler_has_no_extremes(self):
        sampler = Sampler()
        assert sampler.minimum == float("inf")
        assert sampler.maximum == float("-inf")
        assert sampler.total == 0.0

    def test_extend_consumes_a_generator(self):
        sampler = Sampler()
        sampler.extend(float(i) for i in range(1, 5))
        assert sampler.count == 4
        assert sampler.mean == 2.5

    def test_adding_one_at_a_time_matches_extend(self):
        values = [0.5, 8.0, -3.25, 4.0, 4.0]
        one_by_one, at_once = Sampler(), Sampler()
        for value in values:
            one_by_one.add(value)
        at_once.extend(values)
        assert (one_by_one.count, one_by_one.mean, one_by_one.variance) == (
            at_once.count, at_once.mean, at_once.variance
        )

    def test_variance_is_stable_far_from_zero(self):
        # Welford's update keeps precision where sum-of-squares cancels.
        offset = 1e9
        sampler = Sampler()
        sampler.extend(offset + v for v in (4.0, 7.0, 13.0, 16.0))
        assert sampler.mean == pytest.approx(offset + 10.0)
        assert sampler.variance == pytest.approx(30.0)
