"""Unit tests for the Sampler statistics collector."""

import statistics

import pytest

from repro.sim.stats import Sampler


def sampled(values):
    sampler = Sampler()
    for value in values:
        sampler.add(value)
    return sampler


class TestSampler:
    def test_empty_sampler(self):
        sampler = Sampler()
        assert sampler.count == 0
        assert sampler.mean == 0.0

    def test_mean_matches_statistics_module(self):
        values = [1.5, 2.5, 3.0, 10.0, -4.0, 0.25]
        sampler = sampled(values)
        assert sampler.count == len(values)
        assert sampler.mean == pytest.approx(statistics.mean(values))

    def test_min_max(self):
        sampler = sampled([5.0, -2.0, 9.0])
        assert sampler.minimum == -2.0
        assert sampler.maximum == 9.0

    def test_empty_sampler_has_no_extremes(self):
        sampler = Sampler()
        assert sampler.minimum == float("inf")
        assert sampler.maximum == float("-inf")

    def test_mean_is_the_running_update_not_a_sum(self):
        # E10's and A1's latency columns were computed with Welford's
        # running update; a sum divided by the count rounds these
        # values differently in the last place
        values = [100.903, 100.038, 95.325, 189.245, 123.015, 18.381]
        assert sampled(values).mean == 104.4845
        assert sum(values) / len(values) != 104.4845

    def test_mean_is_stable_far_from_zero(self):
        # Welford's running update keeps precision at a large offset.
        offset = 1e9
        sampler = sampled(offset + v for v in (4.0, 7.0, 13.0, 16.0))
        assert sampler.mean == pytest.approx(offset + 10.0)
