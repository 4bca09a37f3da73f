"""Unit tests for yield and die-cost models."""

import pytest

from repro.technology.node import node
from repro.technology.yieldmodel import (
    dice_per_wafer,
    die_cost_usd,
    negative_binomial_yield,
)


class TestNegativeBinomialYield:
    def test_zero_defects_perfect_yield(self):
        assert negative_binomial_yield(100.0, 0.0) == pytest.approx(1.0)

    def test_yield_decreases_with_area(self):
        small = negative_binomial_yield(50.0, 0.5)
        large = negative_binomial_yield(200.0, 0.5)
        assert large < small

    def test_yield_decreases_with_defects(self):
        clean = negative_binomial_yield(100.0, 0.1)
        dirty = negative_binomial_yield(100.0, 1.0)
        assert dirty < clean

    def test_yield_in_unit_interval(self):
        y = negative_binomial_yield(300.0, 0.8)
        assert 0.0 < y < 1.0

    def test_area_validation(self):
        with pytest.raises(ValueError):
            negative_binomial_yield(0.0, 0.5)

    def test_defect_validation(self):
        with pytest.raises(ValueError):
            negative_binomial_yield(100.0, -0.1)


class TestDicePerWafer:
    def test_smaller_die_more_dice(self):
        assert dice_per_wafer(50.0, 300) > dice_per_wafer(200.0, 300)

    def test_bigger_wafer_more_dice(self):
        assert dice_per_wafer(100.0, 300) > dice_per_wafer(100.0, 200)

    def test_sane_count_for_typical_die(self):
        count = dice_per_wafer(100.0, 300)
        assert 400 < count < 707  # below the zero-edge-loss bound


class TestDieCost:
    def test_cost_positive(self):
        assert die_cost_usd(node("130nm"), 80.0) > 0

    def test_larger_die_costs_superlinearly_more(self):
        p = node("90nm")
        small = die_cost_usd(p, 50.0)
        large = die_cost_usd(p, 200.0)
        assert large > 4 * small  # 4x area, worse yield

    def test_oversized_die_rejected(self):
        with pytest.raises(ValueError):
            die_cost_usd(node("90nm"), 90_000.0)
