"""Embedded FPGA fabric macro-model.

Section 6.3: "Embedded FPGA's (eFPGA) will complement the processors,
but only with limited scope (less than 5% of the IC functionality).
The 10X cost and power penalty of eFPGA's will restrict their further
use."  The fabric is modelled at the macro level — LUT capacity and
achievable clock, with the power penalty as a constant — because the
paper's claims live there, not at bitstream level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Power relative to hardwired logic of the same function at the same
#: throughput (the paper's "10X power penalty").
EFPGA_POWER_PENALTY = 10.0

#: Achievable clock relative to hardwired logic (routing fabric is slow).
EFPGA_CLOCK_FACTOR = 0.33

#: Equivalent ASIC gates represented by one 4-input LUT.
GATES_PER_LUT = 8.0


@dataclass
class MappedFunction:
    """A function configured onto the fabric."""

    name: str
    asic_gates: float
    luts: float
    throughput_factor: float  # vs hardwired implementation


@dataclass
class EfpgaFabric:
    """An embedded FPGA tile: LUT capacity and function mapping.

    Parameters
    ----------
    luts:
        4-input LUT capacity.
    """

    name: str = "efpga"
    luts: int = 20_000
    mapped: Dict[str, MappedFunction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.luts < 1:
            raise ValueError(f"fabric needs >=1 LUT, got {self.luts}")

    @property
    def luts_used(self) -> float:
        return sum(f.luts for f in self.mapped.values())

    @property
    def luts_free(self) -> float:
        return self.luts - self.luts_used

    def map_function(self, name: str, asic_gates: float) -> MappedFunction:
        """Configure a function of *asic_gates* hardwired-equivalent gates.

        Raises :class:`ValueError` when the fabric lacks capacity — the
        hard limit that, combined with the 10x penalty, keeps eFPGA
        below ~5% of SoC functionality.
        """
        if name in self.mapped:
            raise ValueError(f"function {name!r} already mapped")
        if asic_gates <= 0:
            raise ValueError(f"gate count must be positive, got {asic_gates}")
        # The routing/configuration overhead is captured in the per-LUT
        # area and power figures, not in the LUT count itself.
        luts = asic_gates / GATES_PER_LUT
        if luts > self.luts_free:
            raise ValueError(
                f"function {name!r} needs {luts:.0f} LUTs, only "
                f"{self.luts_free:.0f} free"
            )
        function = MappedFunction(
            name=name,
            asic_gates=asic_gates,
            luts=luts,
            throughput_factor=EFPGA_CLOCK_FACTOR,
        )
        self.mapped[name] = function
        return function

    def unmap(self, name: str) -> None:
        """Remove a configured function (run-time reconfiguration)."""
        if name not in self.mapped:
            raise ValueError(f"function {name!r} not mapped")
        del self.mapped[name]
