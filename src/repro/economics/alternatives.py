"""The NRE-flexibility continuum of implementation alternatives.

Section 1 places implementation styles on a continuum: full-custom
ASIC/SoC (highest NRE, lowest unit cost and power), gate-array-style
fabrics with top-metal-only configuration (intermediate), FPGAs (no
mask NRE but ~10x unit cost and power), and systems-in-package.  The
paper argues each has a volume band where it wins; experiment E5 maps
those bands and E12 applies the same penalty arithmetic to embedded
FPGA fabric shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.economics.nre import design_nre_usd, mask_nre_usd
from repro.technology.node import ProcessNode, node
from repro.technology.yieldmodel import die_cost_usd


class ImplementationChoice(Enum):
    """Styles on the paper's NRE-flexibility continuum."""

    ASIC = "asic"
    STRUCTURED_ARRAY = "structured_array"   # top-metal-configured gate array
    FPGA = "fpga"
    SIP = "sip"                             # system-in-package, multi-die
    MPSOC_PLATFORM = "mpsoc_platform"       # S/W-programmable platform


@dataclass(frozen=True)
class Alternative:
    """Cost structure of one implementation style.

    Attributes
    ----------
    choice:
        Which style this is.
    mask_nre_factor:
        Fraction of the full mask-set NRE this style pays (a structured
        array only pays for the configured metal layers; an FPGA pays
        none).
    design_nre_factor:
        Fraction of full design NRE (programmable targets skip physical
        design; platform derivatives reuse most of the design).
    unit_cost_factor:
        Silicon cost multiplier vs. the ASIC die (the paper cites ~10x
        for FPGA).
    power_factor:
        Power multiplier vs. the ASIC (also ~10x for FPGA).
    flexibility:
        Qualitative 0-1 score: how much of the function can change after
        manufacturing.
    """

    choice: ImplementationChoice
    mask_nre_factor: float
    design_nre_factor: float
    unit_cost_factor: float
    power_factor: float
    flexibility: float

    def nre(self, process: ProcessNode, transistors: float) -> float:
        """Total NRE of this style for a design at a node."""
        return self.mask_nre_factor * mask_nre_usd(process) + (
            self.design_nre_factor * design_nre_usd(process, transistors)
        )

    def unit(self, process: ProcessNode, die_area_mm2: float) -> float:
        """Unit silicon cost of this style."""
        return self.unit_cost_factor * die_cost_usd(process, die_area_mm2)


#: The paper's continuum with literature-typical factors.  FPGA carries the
#: 10x unit cost/power penalty cited in Sections 1 and 6.3.
STANDARD_ALTERNATIVES: dict[ImplementationChoice, Alternative] = {
    a.choice: a
    for a in [
        Alternative(ImplementationChoice.ASIC, 1.00, 1.00, 1.0, 1.0, 0.05),
        Alternative(ImplementationChoice.STRUCTURED_ARRAY, 0.25, 0.50, 1.8, 1.6, 0.15),
        Alternative(ImplementationChoice.FPGA, 0.00, 0.15, 10.0, 10.0, 0.95),
        Alternative(ImplementationChoice.SIP, 0.60, 0.80, 1.3, 1.1, 0.20),
        Alternative(ImplementationChoice.MPSOC_PLATFORM, 0.10, 0.25, 1.4, 1.5, 0.80),
    ]
}


def total_cost(
    alternative: Alternative,
    process: ProcessNode | str,
    volume: int,
    transistors: float = 50e6,
    die_area_mm2: float = 80.0,
) -> float:
    """NRE + volume * unit cost for an alternative at a volume."""
    if isinstance(process, str):
        process = node(process)
    if volume < 0:
        raise ValueError(f"negative volume {volume}")
    return alternative.nre(process, transistors) + volume * alternative.unit(
        process, die_area_mm2
    )


def best_alternative(
    process: ProcessNode | str,
    volume: int,
    transistors: float = 50e6,
    die_area_mm2: float = 80.0,
    candidates: dict[ImplementationChoice, Alternative] | None = None,
) -> tuple[ImplementationChoice, float]:
    """Cheapest style at a volume; returns (choice, total cost)."""
    candidates = candidates or STANDARD_ALTERNATIVES
    costs = {
        choice: total_cost(alt, process, volume, transistors, die_area_mm2)
        for choice, alt in candidates.items()
    }
    winner = min(costs, key=costs.get)
    return winner, costs[winner]


def efpga_partition_cost(
    process: ProcessNode | str,
    total_gates: float,
    efpga_function_share: float,
    asic_cost_per_gate: float = 1.0,
    efpga_penalty: float = 10.0,
) -> dict[str, float]:
    """Cost/power of mapping a share of functionality onto eFPGA fabric.

    The paper (Sec. 6.3) limits eFPGA to "less than 5% of the IC
    functionality" because of the "10X cost and power penalty".  Here a
    function mapped to eFPGA costs *efpga_penalty* times its hardwired
    cost, and the returned dict exposes the overhead ratio experiment
    E12 sweeps.
    """
    if isinstance(process, str):
        process = node(process)
    if not 0.0 <= efpga_function_share <= 1.0:
        raise ValueError(
            f"eFPGA share must be in [0,1], got {efpga_function_share}"
        )
    hard_gates = total_gates * (1.0 - efpga_function_share)
    soft_gates = total_gates * efpga_function_share
    cost = hard_gates * asic_cost_per_gate + soft_gates * asic_cost_per_gate * (
        efpga_penalty
    )
    baseline = total_gates * asic_cost_per_gate
    return {
        "cost": cost,
        "baseline_cost": baseline,
        "overhead_ratio": cost / baseline,
        "area_share_efpga": soft_gates * efpga_penalty / (
            hard_gates + soft_gates * efpga_penalty
        ),
    }
