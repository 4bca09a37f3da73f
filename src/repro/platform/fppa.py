"""FPPA platform instantiation (the paper's Figure 2).

:func:`build_platform` turns a :class:`~repro.platform.spec.PlatformSpec`
into a live simulation: a NoC with one terminal per component,
hardware-multithreaded PEs with OCP master sockets, memory-controller
slaves, hardwired-IP slaves, an eFPGA tile and line interfaces.  The
DSOC runtime and the mapping tools operate on the resulting
:class:`FppaPlatform`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.noc.network import Network
from repro.noc.ocp import OcpMaster, OcpSlave
from repro.noc.topology import Topology, make_topology
from repro.platform.spec import PlatformSpec
from repro.processors.efpga import EfpgaFabric
from repro.processors.ioblocks import LineInterface, STANDARD_IO_FAMILIES
from repro.processors.multithread import HardwareMultithreadedPE
from repro.sim.core import Simulator


@dataclass
class PeBinding:
    """One instantiated processing element and its NoC socket."""

    index: int
    terminal: int
    pe: HardwareMultithreadedPE
    master: OcpMaster
    kind: str


@dataclass
class MemoryBinding:
    """One instantiated memory controller."""

    terminal: int
    technology: str
    capacity_mb: float
    slave: OcpSlave


@dataclass
class FppaPlatform:
    """A live FPPA instance: simulator, network and component bindings."""

    spec: PlatformSpec
    sim: Simulator
    topology: Topology
    network: Network
    pes: List[PeBinding] = field(default_factory=list)
    memories: List[MemoryBinding] = field(default_factory=list)
    hw_ip_slaves: Dict[str, OcpSlave] = field(default_factory=dict)
    line_interfaces: List[LineInterface] = field(default_factory=list)
    efpga: Optional[EfpgaFabric] = None
    free_terminals: List[int] = field(default_factory=list)

    def memory_terminal(self, technology: str | None = None) -> int:
        """Terminal of the first memory (optionally of a technology)."""
        for binding in self.memories:
            if technology is None or binding.technology == technology:
                return binding.terminal
        raise ValueError(
            f"platform has no memory"
            + (f" of technology {technology!r}" if technology else "")
        )

    def average_pe_utilization(self) -> float:
        """Mean useful-work utilization across all PEs."""
        if not self.pes:
            return 0.0
        return sum(b.pe.utilization() for b in self.pes) / len(self.pes)

    def min_pe_utilization(self) -> float:
        if not self.pes:
            return 0.0
        return min(b.pe.utilization() for b in self.pes)

    def run(self, until: float) -> float:
        """Advance the simulation."""
        return self.sim.run(until=until)


def build_platform(spec: PlatformSpec, seed: int = 1) -> FppaPlatform:
    """Instantiate a platform spec into a live simulation.

    Terminal layout, in order: PEs, memories, hardwired IPs, I/O line
    interfaces, then the eFPGA tile (if any).
    """
    spec.validate()
    sim = Simulator()
    topology = make_topology(spec.topology, spec.num_terminals())
    network = Network(sim, topology, router_delay=spec.router_delay)
    platform = FppaPlatform(
        spec=spec, sim=sim, topology=topology, network=network
    )
    terminal = 0
    pe_index = 0
    for cluster in spec.pes:
        for _ in range(cluster.count):
            pe = HardwareMultithreadedPE(
                sim,
                num_threads=cluster.threads,
                swap_cycles=1.0,
                name=f"pe{pe_index}",
            )
            master = OcpMaster(network, terminal, name=f"pe{pe_index}.ocp")
            platform.pes.append(
                PeBinding(
                    index=pe_index,
                    terminal=terminal,
                    pe=pe,
                    master=master,
                    kind=cluster.kind.value,
                )
            )
            pe_index += 1
            terminal += 1
    for memory in spec.memories:
        slave = OcpSlave(
            network,
            terminal,
            access_latency=memory.latency(),
            name=f"mem.{memory.technology}@{terminal}",
        )
        platform.memories.append(
            MemoryBinding(
                terminal=terminal,
                technology=memory.technology,
                capacity_mb=memory.capacity_mb,
                slave=slave,
            )
        )
        terminal += 1
    for ip in spec.hw_ips:
        platform.hw_ip_slaves[ip.name] = ip.attach(network, terminal)
        terminal += 1
    for io in spec.ios:
        family = STANDARD_IO_FAMILIES[io.family]
        for _ in range(io.count):
            line = LineInterface(
                network,
                family,
                terminal,
                clock_ghz=spec.pes[0].clock_ghz,
            )
            platform.line_interfaces.append(line)
            terminal += 1
    if spec.efpga_luts > 0:
        platform.efpga = EfpgaFabric(luts=spec.efpga_luts)
        # The eFPGA tile still occupies a NoC terminal for reconfig/DMA.
        platform.free_terminals.append(terminal)
        terminal += 1
    return platform
