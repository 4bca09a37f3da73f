"""Unit tests for break-even analysis (experiments E2, E3)."""

import pytest

from repro.economics.breakeven import (
    BreakEven,
    platform_amortization,
    profit_per_unit,
    required_volume_for_nre,
)


class TestProfitPerUnit:
    def test_paper_example(self):
        """$5 price at 20% margin -> $1/unit."""
        assert profit_per_unit(5.0, 0.20) == pytest.approx(1.0)

    def test_price_validation(self):
        with pytest.raises(ValueError):
            profit_per_unit(0.0, 0.2)

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            profit_per_unit(5.0, 0.0)
        with pytest.raises(ValueError):
            profit_per_unit(5.0, 1.5)


class TestRequiredVolume:
    def test_exact_division(self):
        assert required_volume_for_nre(1_000_000, 5.0, 0.20) == 1_000_000

    def test_rounds_up(self):
        assert required_volume_for_nre(10.5, 5.0, 0.20) == 11

    def test_negative_nre_rejected(self):
        with pytest.raises(ValueError):
            required_volume_for_nre(-1.0, 5.0, 0.2)


class TestPaperClaims:
    def test_e2_mask_only_over_1M_units_at_90nm(self):
        """Section 1: 'selling over one million chips simply to pay for
        the mask set NRE'."""
        analysis = BreakEven.analyze("90nm", price_usd=5.0, margin=0.20)
        assert analysis.mask_only_volume > 1_000_000

    def test_e3_total_volume_in_10_100M_band_at_130nm(self):
        """Section 1: 'volumes of 10 to 100 million chips to break even'."""
        analysis = BreakEven.analyze("130nm", transistors=100e6)
        assert 10_000_000 <= analysis.total_volume <= 100_000_000

    def test_break_even_grows_with_scaling(self):
        volumes = [
            BreakEven.analyze(n).mask_only_volume
            for n in ("180nm", "130nm", "90nm", "65nm")
        ]
        assert volumes == sorted(volumes)

    def test_higher_price_lower_volume(self):
        cheap = BreakEven.analyze("90nm", price_usd=5.0)
        expensive = BreakEven.analyze("90nm", price_usd=50.0)
        assert expensive.total_volume < cheap.total_volume

    def test_as_row_roundtrip(self):
        analysis = BreakEven.analyze("90nm")
        row = analysis.as_row()
        assert row["node"] == "90nm"
        assert row["mask_only_volume"] == analysis.mask_only_volume


class TestPlatformAmortization:
    def test_paper_platform_argument(self):
        """Amortizing over many variants slashes NRE per product."""
        result = platform_amortization(50e6, variants=10)
        assert result["nre_per_product"] < 50e6 / 4
        assert result["saving_vs_independent"] > 0.7

    def test_single_variant_no_saving(self):
        result = platform_amortization(50e6, variants=1)
        assert result["nre_per_product"] == pytest.approx(50e6)
        assert result["saving_vs_independent"] == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            platform_amortization(1e6, variants=0)
        with pytest.raises(ValueError):
            platform_amortization(1e6, variants=2, derivative_cost_fraction=2.0)
