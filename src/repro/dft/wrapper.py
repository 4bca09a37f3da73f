"""IEEE 1500-style core test wrappers.

Every wrapped core gets boundary wrapper cells on its functional
terminals, a wrapper instruction register, and a connection to the
SoC test access mechanism (TAM).  The key quantity for SoC test
economics is the per-core test time as a function of TAM width:

    cycles = patterns * (scan_in + capture + scan_out amortized)

with scan length set by how the core's internal scan chains are
balanced over the wrapper's TAM wires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CoreTestSpec:
    """Testability figures of one wrapped core.

    Attributes
    ----------
    name:
        Core name.
    inputs / outputs:
        Functional terminal counts (become wrapper cells).
    scan_flops:
        Internal scan flip-flops.
    internal_chains:
        Number of internal scan chains the core exposes.
    patterns:
        Test patterns to apply.
    test_power_mw:
        Average power while testing (for power-constrained scheduling).
    """

    name: str
    inputs: int
    outputs: int
    scan_flops: int
    internal_chains: int
    patterns: int
    test_power_mw: float = 50.0

    def __post_init__(self) -> None:
        if min(self.inputs, self.outputs, self.scan_flops) < 0:
            raise ValueError(f"{self.name}: negative port/flop counts")
        if self.internal_chains < 1:
            raise ValueError(f"{self.name}: needs >=1 scan chain")
        if self.patterns < 1:
            raise ValueError(f"{self.name}: needs >=1 pattern")


class Ieee1500Wrapper:
    """A wrapped core attached to a TAM of a given width."""

    def __init__(self, spec: CoreTestSpec, tam_width: int = 1) -> None:
        if tam_width < 1:
            raise ValueError(f"TAM width must be >=1, got {tam_width}")
        self.spec = spec
        self.tam_width = tam_width

    @property
    def wrapper_cells(self) -> int:
        """Boundary cells added by wrapping."""
        return self.spec.inputs + self.spec.outputs

    @property
    def effective_width(self) -> int:
        """TAM wires the core can actually exploit.

        Internal flops are pre-stitched into ``internal_chains`` chains,
        so wires beyond that count idle — the physical reason wide TAMs
        are shared across cores rather than handed whole to one core.
        """
        return min(self.tam_width, self.spec.internal_chains)

    def scan_chain_length(self) -> int:
        """Longest wrapper-chain after balancing over the usable wires.

        Wrapper input cells + internal flops + wrapper output cells are
        distributed across :attr:`effective_width` chains; the slowest
        chain dominates.
        """
        total_bits = self.wrapper_cells + self.spec.scan_flops
        return math.ceil(total_bits / self.effective_width)

    def test_cycles(self) -> int:
        """Total scan-test cycles for the core.

        Classic scan arithmetic: pipelined scan-in/scan-out overlap, one
        capture cycle per pattern, plus a final scan-out flush.
        """
        length = self.scan_chain_length()
        p = self.spec.patterns
        return (p + 1) * length + p
