"""Unit tests for the wire-delay models (experiment E9 foundations)."""

import pytest

from repro.technology.node import node, node_names
from repro.technology.wires import (
    WireModel,
    critical_length_mm,
    repeated_wire_delay_ps_per_mm,
)


class TestRepeatedWireDelay:
    def test_reference_value_at_180nm(self):
        assert repeated_wire_delay_ps_per_mm(node("180nm")) == pytest.approx(55.0)

    def test_delay_per_mm_worsens_with_scaling(self):
        values = [
            repeated_wire_delay_ps_per_mm(node(n)) for n in node_names()
        ]
        assert values == sorted(values)

    def test_paper_claim_6_to_10_cycles_at_50nm(self):
        """Section 6.1: 6-10 clock cycles across a 50nm die."""
        cycles = WireModel.for_node("50nm", die_edge_mm=15.0).cross_chip_cycles
        assert 6.0 <= cycles <= 10.0

    def test_sub_cycle_at_180nm(self):
        """Wires were not the problem at 180nm."""
        model = WireModel.for_node("180nm", die_edge_mm=15.0)
        assert model.cross_chip_cycles < 1.0

    def test_cycles_increase_monotonically_with_scaling(self):
        values = [
            WireModel.for_node(n, die_edge_mm=15.0).cross_chip_cycles
            for n in node_names()
        ]
        assert values == sorted(values)


class TestCriticalLength:
    def test_repeaters_pay_off_sooner_as_wires_shrink(self):
        """Unrepeatered RC delay worsens faster with scaling than the
        repeatered per-mm delay, so the critical length shrinks."""
        lengths = [
            critical_length_mm(node(n)) for n in ("180nm", "90nm", "45nm")
        ]
        assert lengths == sorted(lengths, reverse=True)
        assert lengths[-1] > 0


class TestWireModel:
    def test_for_node_consistency(self):
        model = WireModel.for_node("65nm", die_edge_mm=12.0)
        assert model.cross_chip_ps == pytest.approx(
            model.repeated_ps_per_mm * 12.0
        )
        assert model.cross_chip_cycles == pytest.approx(
            model.cross_chip_ps * node("65nm").clock_ghz / 1000.0
        )

    def test_noc_hop_budget_exceeds_raw_wire(self):
        """Section 6.1: a complex NoC exhibits latencies many times the
        raw propagation delay."""
        model = WireModel.for_node("50nm")
        assert model.noc_hop_budget(8) > 2 * model.cross_chip_cycles

    def test_noc_hop_budget_validation(self):
        with pytest.raises(ValueError):
            WireModel.for_node("50nm").noc_hop_budget(0)
