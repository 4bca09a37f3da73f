"""Unit tests for the power models (experiment E16 foundations)."""

import pytest

from repro.technology.node import node
from repro.technology.power import (
    PowerModel,
    VtClass,
    back_bias_vt_shift,
    dvs_energy_delay,
    dynamic_power,
    gate_delay_factor,
    leakage_current_per_um,
    multi_vt_optimize,
)


class TestDynamicPower:
    def test_quadratic_in_vdd(self):
        p1 = dynamic_power(1e-9, 1.0, 1e9)
        p2 = dynamic_power(1e-9, 2.0, 1e9)
        assert p2 == pytest.approx(4 * p1)

    def test_linear_in_frequency(self):
        p1 = dynamic_power(1e-9, 1.0, 1e9)
        p2 = dynamic_power(1e-9, 1.0, 2e9)
        assert p2 == pytest.approx(2 * p1)

    def test_activity_validation(self):
        with pytest.raises(ValueError):
            dynamic_power(1e-9, 1.0, 1e9, activity=1.5)


class TestLeakage:
    def test_high_vt_leaks_less(self):
        p = node("90nm")
        assert leakage_current_per_um(p, VtClass.HIGH) < leakage_current_per_um(
            p, VtClass.NOMINAL
        )

    def test_low_vt_leaks_more(self):
        p = node("90nm")
        assert leakage_current_per_um(p, VtClass.LOW) > leakage_current_per_um(
            p, VtClass.NOMINAL
        )

    def test_high_vt_order_of_magnitude(self):
        """+100mV at ~85mV/decade cuts leakage >10x."""
        p = node("90nm")
        ratio = leakage_current_per_um(p, VtClass.HIGH) / leakage_current_per_um(
            p, VtClass.NOMINAL
        )
        assert ratio < 0.1

    def test_back_bias_reduces_leakage(self):
        """The paper's 'back-bias to master leakage'."""
        p = node("90nm")
        biased = leakage_current_per_um(p, body_bias_v=1.0)
        unbiased = leakage_current_per_um(p)
        assert biased < unbiased / 5

    def test_forward_bias_rejected(self):
        with pytest.raises(ValueError):
            back_bias_vt_shift(-0.5)


class TestDelay:
    def test_high_vt_is_slower(self):
        p = node("90nm")
        assert gate_delay_factor(p, VtClass.HIGH) > 1.0

    def test_low_vt_is_faster(self):
        p = node("90nm")
        assert gate_delay_factor(p, VtClass.LOW) < 1.0

    def test_lower_vdd_is_slower(self):
        p = node("90nm")
        assert gate_delay_factor(p, vdd=0.8 * p.vdd) > 1.0

    def test_supply_below_vt_rejected(self):
        p = node("90nm")
        with pytest.raises(ValueError):
            gate_delay_factor(p, vdd=0.2)


class TestPowerModel:
    def test_for_block_defaults_to_node_clock(self):
        model = PowerModel.for_block(node("130nm"), 1e6)
        assert model.frequency_ghz == node("130nm").clock_ghz


class TestMultiVt:
    def test_saves_leakage_without_touching_dynamic(self):
        model = PowerModel.for_block(node("90nm"), 50e6)
        result = multi_vt_optimize(model, critical_fraction=0.2)
        assert result["optimized_leakage_w"] < result["baseline_leakage_w"]
        assert result["dynamic_w"] == pytest.approx(model.dynamic_w())

    def test_saving_grows_as_critical_fraction_shrinks(self):
        model = PowerModel.for_block(node("90nm"), 50e6)
        tight = multi_vt_optimize(model, critical_fraction=0.1)
        loose = multi_vt_optimize(model, critical_fraction=0.5)
        assert tight["leakage_saving"] > loose["leakage_saving"]

    def test_all_critical_saves_nothing(self):
        model = PowerModel.for_block(node("90nm"), 1e6)
        result = multi_vt_optimize(model, critical_fraction=1.0)
        assert result["leakage_saving"] == pytest.approx(0.0)

    def test_fraction_validation(self):
        model = PowerModel.for_block(node("90nm"), 1e6)
        with pytest.raises(ValueError):
            multi_vt_optimize(model, critical_fraction=1.5)


class TestDvs:
    def test_energy_quadratic(self):
        model = PowerModel.for_block(node("90nm"), 1e6)
        result = dvs_energy_delay(model, 0.5)
        assert result["energy_factor"] == pytest.approx(0.25)

    def test_delay_rises_at_lower_vdd(self):
        model = PowerModel.for_block(node("90nm"), 1e6)
        assert dvs_energy_delay(model, 0.7)["delay_factor"] > 1.0

    def test_nominal_is_identity(self):
        model = PowerModel.for_block(node("90nm"), 1e6)
        result = dvs_energy_delay(model, 1.0)
        assert result["energy_factor"] == pytest.approx(1.0)
        assert result["delay_factor"] == pytest.approx(1.0)

    def test_scale_validation(self):
        model = PowerModel.for_block(node("90nm"), 1e6)
        with pytest.raises(ValueError):
            dvs_energy_delay(model, 0.0)
