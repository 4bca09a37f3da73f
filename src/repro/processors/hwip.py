"""Hardwired IP blocks.

Section 6.4: "Of course, hardware will not disappear!  But increasingly,
it will exist in the form of highly standardized functions, which
communicate via a standard protocol.  Examples include high-performance
video processing, e.g. an MPEG2 video codec."  A :class:`HardwiredIp`
is a fixed-function block with throughput/latency/area/power figures
and an OCP-style service loop for platform simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.network import Network
from repro.noc.ocp import OcpSlave, Transaction


@dataclass(frozen=True)
class HardwiredIp:
    """A standardized fixed-function hardware block.

    Attributes
    ----------
    name:
        Function name.
    throughput_items_per_cycle:
        Work items (macroblocks, symbols, packets) completed per cycle.
    latency_cycles:
        Pipeline latency for one item.
    gates:
        Logic complexity.
    power_mw_at_reference:
        Active power at the reference clock.
    standard_protocol:
        The interface standard it speaks (the paper insists on
        standardized sockets — OCP here).
    """

    name: str
    throughput_items_per_cycle: float
    latency_cycles: float
    gates: float
    power_mw_at_reference: float
    standard_protocol: str = "OCP"

    def __post_init__(self) -> None:
        if self.throughput_items_per_cycle <= 0:
            raise ValueError(f"{self.name}: throughput must be positive")
        if self.latency_cycles < 0:
            raise ValueError(f"{self.name}: negative latency")

    def service_cycles(self, items: int) -> float:
        """Cycles to process *items* back-to-back work items."""
        if items < 1:
            raise ValueError(f"need >=1 item, got {items}")
        return self.latency_cycles + (items - 1) / self.throughput_items_per_cycle

    def attach(
        self,
        network: Network,
        terminal: int,
        items_per_request: int = 1,
    ) -> OcpSlave:
        """Expose the block as an OCP slave on a network terminal."""

        def handler(txn: Transaction):
            return {"ip": self.name, "processed": items_per_request, "req": txn.kind}

        return OcpSlave(
            network,
            terminal,
            access_latency=self.service_cycles(items_per_request),
            handler=handler,
            name=self.name,
        )


#: An MPEG-2 main-profile decoder: ~0.01 macroblocks/cycle sustains SD
#: video at ~100 MHz.
MPEG2_DECODER = HardwiredIp(
    name="mpeg2_decoder",
    throughput_items_per_cycle=0.01,
    latency_cycles=400.0,
    gates=450_000.0,
    power_mw_at_reference=120.0,
)

#: An MPEG-4 codec (the paper's Section 3 example of standard HW IP).
MPEG4_CODEC = HardwiredIp(
    name="mpeg4_codec",
    throughput_items_per_cycle=0.008,
    latency_cycles=600.0,
    gates=700_000.0,
    power_mw_at_reference=150.0,
)

#: A Viterbi decoder for wireless baseband.
VITERBI = HardwiredIp(
    name="viterbi_decoder",
    throughput_items_per_cycle=1.0,
    latency_cycles=64.0,
    gates=90_000.0,
    power_mw_at_reference=35.0,
)
