"""Low-power wireless LAN baseband workload.

Section 8: "The use of coarse and fine grain configurable fabrics
allows the system designer to optimize performance versus power
consumption.  We are exploring these issues in the application of
low-power wireless LAN's."  This module models an 802.11a-class OFDM
baseband (FFT, equalizer, Viterbi) and compares software (DSP), eFPGA
and hardwired implementations on throughput and power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.processors.dsp import DspModel, STANDARD_KERNELS
from repro.processors.efpga import (
    EFPGA_CLOCK_FACTOR,
    EFPGA_POWER_PENALTY,
)
from repro.processors.hwip import VITERBI


@dataclass(frozen=True)
class BasebandStage:
    """One stage of the OFDM receive chain."""

    name: str
    kernel: str             # key into STANDARD_KERNELS
    size: int               # kernel problem size per OFDM symbol
    hardwired_gates: float  # ASIC implementation complexity
    hardwired_mw: float     # ASIC power at symbol rate


#: 802.11a 20 MHz OFDM receive chain, per-symbol work.
RECEIVE_CHAIN = (
    BasebandStage("fft64", "fft", 64, 55_000.0, 18.0),
    BasebandStage("channel_eq", "dot_product", 64, 30_000.0, 9.0),
    BasebandStage("viterbi", "viterbi_acs", 64, VITERBI.gates, 35.0),
)

#: 802.11a symbol rate: one OFDM symbol per 4 us.
SYMBOL_RATE_HZ = 250_000.0


@dataclass
class WlanBaseband:
    """One implementation choice per stage: 'dsp', 'efpga', 'hardwired'."""

    assignment: Dict[str, str]
    dsp: DspModel = None

    def __post_init__(self) -> None:
        if self.dsp is None:
            self.dsp = DspModel(name="wlan_dsp", mac_units=4, clock_mhz=200.0)
        valid = {"dsp", "efpga", "hardwired"}
        for stage in RECEIVE_CHAIN:
            choice = self.assignment.get(stage.name)
            if choice not in valid:
                raise ValueError(
                    f"stage {stage.name!r} needs an assignment in {valid}, "
                    f"got {choice!r}"
                )

    def stage_time_us(self, stage: BasebandStage) -> float:
        """Per-symbol processing time of one stage."""
        choice = self.assignment[stage.name]
        kernel = STANDARD_KERNELS[stage.kernel]
        if choice == "dsp":
            return self.dsp.kernel_time_us(kernel, stage.size)
        # Hardwired: one item per cycle pipeline at 200 MHz reference.
        hardwired_us = stage.size / 200.0
        if choice == "hardwired":
            return hardwired_us
        # eFPGA: hardwired dataflow at a third the clock.
        return hardwired_us / EFPGA_CLOCK_FACTOR

    def stage_power_mw(self, stage: BasebandStage) -> float:
        """Average power of one stage at the symbol rate.

        Energy accounting: the eFPGA pays the paper's 10x penalty in
        energy *per operation* (iso-work vs the hardwired block); the
        DSP's power is duty-cycled core power.
        """
        choice = self.assignment[stage.name]
        hardwired_duty = min(
            1.0, (stage.size / 200.0) * 1e-6 * SYMBOL_RATE_HZ
        )
        if choice == "hardwired":
            return stage.hardwired_mw * hardwired_duty
        if choice == "efpga":
            return stage.hardwired_mw * EFPGA_POWER_PENALTY * hardwired_duty
        duty = min(1.0, self.stage_time_us(stage) * 1e-6 * SYMBOL_RATE_HZ)
        return self.dsp.clock_mhz * 1.0 * duty

    def symbol_time_us(self) -> float:
        """Serial per-symbol latency of the chain."""
        return sum(self.stage_time_us(stage) for stage in RECEIVE_CHAIN)

    def total_power_mw(self) -> float:
        return sum(self.stage_power_mw(stage) for stage in RECEIVE_CHAIN)

    def meets_symbol_rate(self) -> bool:
        """Pipeline feasibility: slowest stage under the symbol period."""
        period_us = 1e6 / SYMBOL_RATE_HZ
        return all(
            self.stage_time_us(stage) <= period_us for stage in RECEIVE_CHAIN
        )


def wlan_power_comparison() -> Dict[str, Dict[str, float]]:
    """The Section-8 exploration: all-DSP vs all-eFPGA vs all-hardwired
    vs the mixed assignment; power and feasibility of each."""
    choices = {
        "all_dsp": {s.name: "dsp" for s in RECEIVE_CHAIN},
        "all_efpga": {s.name: "efpga" for s in RECEIVE_CHAIN},
        "all_hardwired": {s.name: "hardwired" for s in RECEIVE_CHAIN},
        "mixed": {
            "fft64": "hardwired",
            "channel_eq": "dsp",
            "viterbi": "hardwired",
        },
    }
    report: Dict[str, Dict[str, float]] = {}
    for name, assignment in choices.items():
        baseband = WlanBaseband(assignment=assignment)
        report[name] = {
            "symbol_time_us": baseband.symbol_time_us(),
            "power_mw": baseband.total_power_mw(),
            "feasible": baseband.meets_symbol_rate(),
        }
    return report
