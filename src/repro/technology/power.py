"""Power models: dynamic, leakage, multi-Vt, back-bias and voltage scaling.

Section 4 of the paper lists the low-power techniques that "are a must,
not just an added-value feature": on-chip voltage control, back-bias to
master leakage, and multi-Vt transistors.  This module provides the
quantitative models behind experiment E16.

Physics used
------------
* Dynamic power: ``P = activity * C * Vdd^2 * f``.
* Subthreshold leakage: ``I = I0 * 10^(-(Vt - Vt_nom)/S)`` with
  subthreshold slope ``S`` ~ 85 mV/decade at room temperature.
* Alpha-power delay model: gate delay ~ ``Vdd / (Vdd - Vt)^alpha`` with
  ``alpha`` ~ 1.3 for short-channel devices.
* Reverse body bias raises Vt by ``k_body * sqrt`` effect, linearised to
  ~100 mV Vt shift per volt of bias for the nodes of interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.technology.node import ProcessNode

#: Subthreshold slope (V per decade of leakage current).
SUBTHRESHOLD_SLOPE_V = 0.085

#: Alpha-power-law velocity-saturation exponent.
ALPHA_POWER = 1.3

#: Linearised Vt shift per volt of reverse body bias (V/V).
BODY_EFFECT_V_PER_V = 0.10

#: Nominal threshold voltage as a fraction of Vdd for each node era.
VT_FRACTION_OF_VDD = 0.25


class VtClass(Enum):
    """Multi-threshold transistor flavours offered by a process."""

    LOW = "low_vt"      # fast, leaky: critical paths only
    NOMINAL = "std_vt"  # the reference device
    HIGH = "high_vt"    # slow, low-leak: everything else

    @property
    def vt_offset_v(self) -> float:
        """Threshold offset relative to the nominal device (V)."""
        return {"low_vt": -0.08, "std_vt": 0.0, "high_vt": +0.10}[self.value]


def dynamic_power(
    capacitance_f: float,
    vdd: float,
    frequency_hz: float,
    activity: float = 0.15,
) -> float:
    """Switching power in watts for a lumped capacitance.

    *activity* is the average node toggle probability per cycle; 0.1-0.2
    is typical for SoC logic.
    """
    if not 0.0 <= activity <= 1.0:
        raise ValueError(f"activity factor must be in [0,1], got {activity}")
    return activity * capacitance_f * vdd * vdd * frequency_hz


def leakage_current_per_um(
    process: ProcessNode,
    vt_class: VtClass = VtClass.NOMINAL,
    body_bias_v: float = 0.0,
) -> float:
    """Subthreshold leakage (A per um of device width).

    Reverse body bias (*body_bias_v* > 0) raises Vt and exponentially
    reduces leakage — the paper's "back-bias to master leakage".
    """
    vt_shift = vt_class.vt_offset_v + back_bias_vt_shift(body_bias_v)
    nominal_a = process.leakage_na_per_um * 1e-9
    return nominal_a * 10.0 ** (-vt_shift / SUBTHRESHOLD_SLOPE_V)


def back_bias_vt_shift(body_bias_v: float) -> float:
    """Vt increase (V) produced by a reverse body bias voltage."""
    if body_bias_v < 0:
        raise ValueError(f"forward body bias not modelled (got {body_bias_v})")
    return BODY_EFFECT_V_PER_V * body_bias_v


def gate_delay_factor(
    process: ProcessNode,
    vt_class: VtClass = VtClass.NOMINAL,
    vdd: float | None = None,
    body_bias_v: float = 0.0,
) -> float:
    """Relative gate delay vs. the nominal-Vt, nominal-Vdd device.

    Follows the alpha-power law; >1 means slower.
    """
    supply = process.vdd if vdd is None else vdd
    vt_nom = VT_FRACTION_OF_VDD * process.vdd
    vt = vt_nom + vt_class.vt_offset_v + back_bias_vt_shift(body_bias_v)
    if supply <= vt:
        raise ValueError(
            f"supply {supply} V too low for Vt {vt:.3f} V — device won't switch"
        )
    nominal = process.vdd / (process.vdd - vt_nom) ** ALPHA_POWER
    actual = supply / (supply - vt) ** ALPHA_POWER
    return actual / nominal


@dataclass(frozen=True)
class PowerModel:
    """Power figures for a logic block at one node.

    Parameters
    ----------
    process:
        The process node.
    transistors:
        Logic transistor count of the block.
    frequency_ghz:
        Operating clock (defaults to the node clock).
    activity:
        Toggle probability per cycle.
    avg_width_um:
        Mean transistor width for leakage accounting.
    """

    process: ProcessNode
    transistors: float
    frequency_ghz: float
    activity: float = 0.15
    avg_width_um: float = 0.5

    @classmethod
    def for_block(
        cls,
        process: ProcessNode,
        transistors: float,
        frequency_ghz: float | None = None,
        activity: float = 0.15,
    ) -> "PowerModel":
        freq = process.clock_ghz if frequency_ghz is None else frequency_ghz
        return cls(process, transistors, freq, activity)

    def dynamic_w(self, vdd: float | None = None) -> float:
        """Dynamic power (W) of the block."""
        supply = self.process.vdd if vdd is None else vdd
        # Half the devices' gate cap switches per toggle, roughly.
        cap_f = self.transistors * self.avg_width_um * (
            self.process.gate_cap_ff_per_um * 1e-15
        )
        return dynamic_power(cap_f, supply, self.frequency_ghz * 1e9, self.activity)

    def leakage_w(
        self,
        vt_class: VtClass = VtClass.NOMINAL,
        body_bias_v: float = 0.0,
        vdd: float | None = None,
    ) -> float:
        """Static power (W) of the block with one uniform Vt flavour."""
        supply = self.process.vdd if vdd is None else vdd
        per_um = leakage_current_per_um(self.process, vt_class, body_bias_v)
        return self.transistors * self.avg_width_um * per_um * supply


def multi_vt_optimize(
    model: PowerModel,
    critical_fraction: float = 0.2,
) -> dict[str, float]:
    """Assign high-Vt to non-critical devices, low/nominal Vt to critical.

    Returns the power breakdown of the optimized block versus a uniform
    nominal-Vt baseline.  *critical_fraction* is the share of devices on
    timing-critical paths that must keep the fast (nominal) flavour.
    """
    if not 0.0 <= critical_fraction <= 1.0:
        raise ValueError(
            f"critical fraction must be in [0,1], got {critical_fraction}"
        )
    baseline_leak = model.leakage_w(VtClass.NOMINAL)
    crit = critical_fraction
    optimized_leak = crit * model.leakage_w(VtClass.NOMINAL) + (
        1.0 - crit
    ) * model.leakage_w(VtClass.HIGH)
    dynamic = model.dynamic_w()
    return {
        "baseline_total_w": dynamic + baseline_leak,
        "optimized_total_w": dynamic + optimized_leak,
        "baseline_leakage_w": baseline_leak,
        "optimized_leakage_w": optimized_leak,
        "leakage_saving": 1.0 - optimized_leak / baseline_leak,
        "dynamic_w": dynamic,
    }


def dvs_energy_delay(
    model: PowerModel,
    vdd_scale: float,
) -> dict[str, float]:
    """Dynamic-voltage-scaling tradeoff at a scaled supply.

    Returns relative energy-per-operation and delay factors versus the
    nominal supply; energy falls ~quadratically, delay rises per the
    alpha-power law.
    """
    if vdd_scale <= 0:
        raise ValueError(f"vdd scale must be positive, got {vdd_scale}")
    vdd = model.process.vdd * vdd_scale
    delay = gate_delay_factor(model.process, vdd=vdd)
    energy = vdd_scale ** 2
    return {
        "vdd": vdd,
        "delay_factor": delay,
        "energy_factor": energy,
        "energy_delay_product": energy * delay,
    }
