"""Platform configuration specifications.

A :class:`PlatformSpec` is the declarative description of an FPPA
instance: processor clusters, interconnect topology, memories, eFPGA,
hardwired IP and I/O.  The platform level of the paper's abstraction
stack does "specification, assembly and configuration of existing IP
blocks" — this spec is that configuration artifact, with validation and
area/power/transistor roll-ups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.memory.technology import MEMORY_TECHNOLOGIES
from repro.noc.topology import TopologyKind
from repro.processors.classes import FIGURE1_CLASSES, ProcessorKind
from repro.processors.hwip import HardwiredIp
from repro.processors.ioblocks import STANDARD_IO_FAMILIES

#: Logic transistors of one multithreaded PE (core + register banks).
PE_BASE_TRANSISTORS = 150_000.0
PE_TRANSISTORS_PER_THREAD = 18_000.0


@dataclass(frozen=True)
class PeSpec:
    """One homogeneous cluster of processing elements."""

    kind: ProcessorKind
    count: int
    threads: int = 4
    clock_ghz: float = 0.5

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"PE cluster needs >=1 element, got {self.count}")
        if self.threads < 1:
            raise ValueError(f"PE needs >=1 thread, got {self.threads}")
        if self.clock_ghz <= 0:
            raise ValueError(f"clock must be positive, got {self.clock_ghz}")

    def transistors(self) -> float:
        per_pe = PE_BASE_TRANSISTORS + self.threads * PE_TRANSISTORS_PER_THREAD
        return self.count * per_pe


@dataclass(frozen=True)
class MemorySpec:
    """One on-platform memory controller."""

    technology: str
    capacity_mb: float
    access_latency_cycles: float = 0.0   # 0 = use technology default

    def __post_init__(self) -> None:
        if self.technology not in MEMORY_TECHNOLOGIES:
            raise ValueError(
                f"unknown memory technology {self.technology!r}; "
                f"known: {', '.join(MEMORY_TECHNOLOGIES)}"
            )
        if self.capacity_mb <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_mb}")

    def latency(self) -> float:
        if self.access_latency_cycles > 0:
            return self.access_latency_cycles
        return MEMORY_TECHNOLOGIES[self.technology].read_latency_cycles


@dataclass(frozen=True)
class IoSpec:
    """One I/O interface instance."""

    family: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.family not in STANDARD_IO_FAMILIES:
            raise ValueError(
                f"unknown I/O family {self.family!r}; "
                f"known: {', '.join(STANDARD_IO_FAMILIES)}"
            )
        if self.count < 1:
            raise ValueError(f"I/O count must be >=1, got {self.count}")


@dataclass
class PlatformSpec:
    """Complete FPPA platform description."""

    name: str
    pes: List[PeSpec] = field(default_factory=list)
    topology: TopologyKind = TopologyKind.MESH
    memories: List[MemorySpec] = field(default_factory=list)
    hw_ips: List[HardwiredIp] = field(default_factory=list)
    ios: List[IoSpec] = field(default_factory=list)
    efpga_luts: int = 0
    router_delay: float = 2.0

    def validate(self) -> None:
        """Check the spec is buildable."""
        if not self.pes:
            raise ValueError(f"platform {self.name!r} has no processors")
        for pe in self.pes:
            if pe.kind not in FIGURE1_CLASSES:
                raise ValueError(f"unknown processor kind {pe.kind}")
        if self.num_pes() < 1:
            raise ValueError("platform needs at least one PE")

    def num_pes(self) -> int:
        return sum(pe.count for pe in self.pes)

    def num_terminals(self) -> int:
        """NoC terminals: PEs + memories + HW IPs + I/Os (+1 eFPGA)."""
        io_count = sum(io.count for io in self.ios)
        efpga = 1 if self.efpga_luts > 0 else 0
        return self.num_pes() + len(self.memories) + len(self.hw_ips) + io_count + efpga

    def total_threads(self) -> int:
        return sum(pe.count * pe.threads for pe in self.pes)

    def logic_transistors(self) -> float:
        """Roll-up of PE + HW IP + I/O logic (4 transistors per gate)."""
        pe_tx = sum(pe.transistors() for pe in self.pes)
        ip_tx = sum(ip.gates * 4.0 for ip in self.hw_ips)
        io_tx = sum(
            STANDARD_IO_FAMILIES[io.family].gates * 4.0 * io.count
            for io in self.ios
        )
        efpga_tx = self.efpga_luts * 60.0  # config + LUT + routing mux
        return pe_tx + ip_tx + io_tx + efpga_tx

    def summary(self) -> dict:
        """Report dict (the Figure-2 'platform composition' table)."""
        return {
            "name": self.name,
            "processors": self.num_pes(),
            "hardware_threads": self.total_threads(),
            "topology": self.topology.value,
            "memories": [
                f"{m.technology}:{m.capacity_mb}MB" for m in self.memories
            ],
            "hw_ips": [ip.name for ip in self.hw_ips],
            "ios": [f"{io.family}x{io.count}" for io in self.ios],
            "efpga_luts": self.efpga_luts,
            "logic_transistors": self.logic_transistors(),
            "terminals": self.num_terminals(),
        }
