"""Unit tests for the implementation-alternatives continuum (E5, E12)."""

import pytest

from repro.economics.alternatives import (
    STANDARD_ALTERNATIVES,
    ImplementationChoice,
    best_alternative,
    efpga_partition_cost,
    total_cost,
)
from repro.technology.node import node


def alt(choice):
    return STANDARD_ALTERNATIVES[choice]


class TestContinuumShape:
    def test_fpga_has_no_mask_nre(self):
        assert alt(ImplementationChoice.FPGA).mask_nre_factor == 0.0

    def test_fpga_10x_unit_penalty(self):
        """Sections 1/6.3: FPGA's ~10x cost and power penalty."""
        fpga = alt(ImplementationChoice.FPGA)
        assert fpga.unit_cost_factor == pytest.approx(10.0)
        assert fpga.power_factor == pytest.approx(10.0)

    def test_flexibility_orders_opposite_to_unit_cost_extremes(self):
        fpga = alt(ImplementationChoice.FPGA)
        asic = alt(ImplementationChoice.ASIC)
        assert fpga.flexibility > asic.flexibility
        assert fpga.unit_cost_factor > asic.unit_cost_factor

    def test_structured_array_between_asic_and_fpga(self):
        """'Gate-array style fabric and top metal-level configuration
        will provide an intermediate point on the NRE-flexibility
        continuum.'"""
        sa = alt(ImplementationChoice.STRUCTURED_ARRAY)
        asic = alt(ImplementationChoice.ASIC)
        fpga = alt(ImplementationChoice.FPGA)
        assert asic.mask_nre_factor > sa.mask_nre_factor > fpga.mask_nre_factor
        assert asic.unit_cost_factor < sa.unit_cost_factor < fpga.unit_cost_factor


class TestVolumeRegions:
    def test_fpga_wins_low_volume(self):
        choice, _cost = best_alternative("130nm", 2_000)
        assert choice is ImplementationChoice.FPGA

    def test_asic_wins_high_volume(self):
        choice, _cost = best_alternative("130nm", 20_000_000)
        assert choice is ImplementationChoice.ASIC

    def test_middle_band_not_asic_not_fpga(self):
        choice, _cost = best_alternative("130nm", 200_000)
        assert choice not in (ImplementationChoice.ASIC, ImplementationChoice.FPGA)

    def test_total_cost_monotone_in_volume(self):
        asic = alt(ImplementationChoice.ASIC)
        costs = [total_cost(asic, "130nm", v) for v in (0, 1000, 100000)]
        assert costs == sorted(costs)

    def test_volume_validation(self):
        with pytest.raises(ValueError):
            total_cost(alt(ImplementationChoice.ASIC), "130nm", -1)


class TestEfpgaPartition:
    def test_zero_share_is_baseline(self):
        result = efpga_partition_cost("130nm", 1e6, 0.0)
        assert result["overhead_ratio"] == pytest.approx(1.0)

    def test_full_share_is_10x(self):
        result = efpga_partition_cost("130nm", 1e6, 1.0)
        assert result["overhead_ratio"] == pytest.approx(10.0)

    def test_5pct_share_modest_overhead(self):
        """The paper's <5% guidance keeps overhead mild."""
        result = efpga_partition_cost("130nm", 1e6, 0.05)
        assert result["overhead_ratio"] == pytest.approx(1.45)

    def test_area_share_exceeds_function_share(self):
        """5% of functionality occupies ~32% of area at 10x penalty —
        why the paper bounds eFPGA scope."""
        result = efpga_partition_cost("130nm", 1e6, 0.05)
        assert result["area_share_efpga"] > 0.3

    def test_share_validation(self):
        with pytest.raises(ValueError):
            efpga_partition_cost("130nm", 1e6, 1.5)

    def test_unit_cost_uses_factor(self):
        fpga = alt(ImplementationChoice.FPGA)
        asic = alt(ImplementationChoice.ASIC)
        process = node("130nm")
        assert fpga.unit(process, 80.0) == pytest.approx(
            10 * asic.unit(process, 80.0)
        )
