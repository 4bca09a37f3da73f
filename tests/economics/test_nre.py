"""Unit tests for NRE models (experiments E1, E3)."""

import pytest

from repro.economics.nre import (
    DesignTeamModel,
    design_nre_usd,
    mask_nre_growth_per_generation,
    mask_nre_series,
    mask_nre_usd,
)
from repro.technology.node import node


class TestMaskNre:
    def test_lookup_by_label_and_object(self):
        assert mask_nre_usd("90nm") == mask_nre_usd(node("90nm"))

    def test_paper_x10_in_3_generations(self):
        """Section 1: x10 in about three generations."""
        growth = mask_nre_growth_per_generation("350nm", "90nm")
        assert growth ** 3 == pytest.approx(10.0, rel=0.15)

    def test_90nm_exceeds_1M(self):
        assert mask_nre_usd("90nm") > 1e6

    def test_series_monotone(self):
        costs = [cost for _n, cost in mask_nre_series()]
        assert costs == sorted(costs)

    def test_growth_requires_two_nodes(self):
        with pytest.raises(ValueError):
            mask_nre_growth_per_generation("90nm", "90nm")


class TestDesignNre:
    def test_130nm_100M_in_paper_band(self):
        """Section 1: $10M-$100M for complex 0.13um designs."""
        nre = design_nre_usd("130nm", 100e6)
        assert 10e6 <= nre <= 100e6

    def test_more_transistors_cost_more(self):
        assert design_nre_usd("130nm", 200e6) > design_nre_usd("130nm", 50e6)

    def test_reuse_cuts_cost(self):
        fresh = design_nre_usd("130nm", 100e6, reuse_fraction=0.0)
        reused = design_nre_usd("130nm", 100e6, reuse_fraction=0.8)
        assert reused < fresh / 2

    def test_reuse_validation(self):
        with pytest.raises(ValueError):
            design_nre_usd("130nm", 1e6, reuse_fraction=1.2)

    def test_team_model_productivity_validation(self):
        with pytest.raises(ValueError):
            DesignTeamModel().design_nre(1e6, 0.0)

    def test_team_model_overheads_multiply(self):
        team = DesignTeamModel(
            loaded_cost_per_man_year_usd=200_000,
            verification_overhead=1.0,
            eda_ip_overhead=0.5,
        )
        # 10 man-years base -> x2 verification -> x1.5 tooling.
        assert team.design_nre(1e6, 1e5) == pytest.approx(
            10 * 200_000 * 2.0 * 1.5
        )
