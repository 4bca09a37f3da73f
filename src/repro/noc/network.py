"""The event-driven network model.

The :class:`Network` ties a topology and routing table to the simulation
kernel.  Switching is virtual cut-through: the head flit of a packet
moves hop to hop, each hop costing the router pipeline delay plus link
serialization; contention is resolved FCFS per link.  The model is
packet-granular (one event per hop) rather than flit-granular, which
keeps 64-node, 100k-cycle simulations fast in pure Python while
preserving the latency/throughput behaviour the experiments measure:
zero-load latency, serialization, and saturation under contention.

Bus topologies are special-cased: every transfer holds the single shared
medium for its full serialization time (plus arbitration), which is what
makes the bus saturate first in experiment E10.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.noc.link import Link
from repro.noc.packet import Packet
from repro.noc.routing import FLOW_ID_MULT, RoutingTable, cached_routing
from repro.noc.topology import Topology, TopologyKind
from repro.sim.core import Simulator

DeliveryCallback = Callable[[Packet], None]


class Network:
    """A simulated network-on-chip instance.

    Parameters
    ----------
    sim:
        The simulation kernel to schedule on.
    topology:
        Router graph and terminal attachments.
    router_delay:
        Pipeline cycles a header spends in each router.
    link_bandwidth:
        Flits per cycle per link.
    injection_bandwidth:
        Flits per cycle on the terminal-to-router injection link.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        router_delay: float = 2.0,
        link_bandwidth: float = 1.0,
        injection_bandwidth: float = 1.0,
    ) -> None:
        if router_delay < 0:
            raise ValueError(f"negative router delay {router_delay}")
        self.sim = sim
        self.topology = topology
        self.routing: RoutingTable = cached_routing(topology)
        self.router_delay = router_delay
        self.links: Dict[Tuple[int, int], Link] = {
            (u, v): Link(f"link{u}->{v}", link_bandwidth)
            for u, v in topology.edges
        }
        # Injection/ejection links between terminals and their routers.
        self.injection: List[Link] = [
            Link(f"inject{t}", injection_bandwidth)
            for t in range(topology.num_terminals)
        ]
        self.ejection: List[Link] = [
            Link(f"eject{t}", injection_bandwidth)
            for t in range(topology.num_terminals)
        ]
        # The shared medium for bus topologies.
        self._bus: Optional[Link] = (
            Link("bus", link_bandwidth)
            if topology.kind is TopologyKind.BUS
            else None
        )
        self.delivered_packets = 0
        self.delivered_flits = 0
        self.injected_packets = 0
        self._receivers: List[Optional[DeliveryCallback]] = [
            None
        ] * topology.num_terminals

    def attach(self, terminal: int, callback: DeliveryCallback) -> None:
        """Register the delivery callback for a terminal."""
        self._check_terminal(terminal)
        self._receivers[terminal] = callback

    def send(
        self,
        packet: Packet,
        on_deliver: Optional[DeliveryCallback] = None,
    ) -> None:
        """Inject *packet* at its source terminal.

        Delivery invokes *on_deliver* (if given) and the destination
        terminal's attached callback (if any).
        """
        src = packet.src
        dst = packet.dst
        terminals = self.topology.num_terminals
        if not (0 <= src < terminals and 0 <= dst < terminals):
            self._check_terminal(src)
            self._check_terminal(dst)
        sim = self.sim
        now = sim.now
        packet.injected_at = now
        self.injected_packets += 1
        if self._bus is not None:
            self._send_bus(packet, on_deliver)
            return
        src_router = self.topology.terminal_router[src]
        dst_router = self.topology.terminal_router[dst]
        # Injection link serialization.
        _start, finish = self.injection[src].reserve(now, packet.size_flits)
        # Every hop stays its own event: a link's FCFS order is the
        # order in which hop events reserve it.
        if src_router == dst_router:
            # Straight through one router to the ejection port.
            arrival = finish + self.router_delay
            sim.schedule(arrival - now, partial(self._eject, packet, on_deliver))
            return
        flow = src * FLOW_ID_MULT + dst
        path = self.routing.route(src_router, dst_router, flow=flow)
        sim.schedule(
            finish - now, partial(self._hop, packet, path, 0, on_deliver)
        )

    # -- internal forwarding -------------------------------------------------

    def _send_bus(self, packet: Packet, on_deliver: Optional[DeliveryCallback]) -> None:
        assert self._bus is not None
        # Arbitration + full serialization on the shared medium.
        now = self.sim.now
        _start, finish = self._bus.reserve(now, packet.size_flits)
        arrival = finish + self.router_delay
        packet.hops = 1
        self.sim.schedule(arrival - now, partial(self._eject, packet, on_deliver))

    def _hop(
        self,
        packet: Packet,
        path: List[int],
        index: int,
        on_deliver: Optional[DeliveryCallback],
    ) -> None:
        """Header is at ``path[index]``; traverse to the next router."""
        link = self.links[(path[index], path[index + 1])]
        sim = self.sim
        now = sim.now
        # Router pipeline, then wait for the output link, then serialize.
        _start, finish = link.reserve(now + self.router_delay, packet.size_flits)
        packet.hops += 1
        if index + 2 == len(path):
            step = partial(self._eject, packet, on_deliver)
        else:
            step = partial(self._hop, packet, path, index + 1, on_deliver)
        sim.schedule(finish - now, step)

    def _eject(self, packet: Packet, on_deliver: Optional[DeliveryCallback]) -> None:
        sim = self.sim
        now = sim.now
        _start, finish = self.ejection[packet.dst].reserve(now, packet.size_flits)
        sim.schedule(finish - now, partial(self._deliver, packet, on_deliver))

    def _deliver(self, packet: Packet, on_deliver: Optional[DeliveryCallback]) -> None:
        packet.delivered_at = self.sim.now
        self.delivered_packets += 1
        self.delivered_flits += packet.size_flits
        if on_deliver is not None:
            on_deliver(packet)
        receiver = self._receivers[packet.dst]
        if receiver is not None:
            receiver(packet)

    def _check_terminal(self, terminal: int) -> None:
        if not 0 <= terminal < self.topology.num_terminals:
            raise ValueError(
                f"terminal {terminal} out of range "
                f"(topology has {self.topology.num_terminals})"
            )

    # -- reporting -----------------------------------------------------------

    def zero_load_latency(self, src: int, dst: int, size_flits: int = 4) -> float:
        """Analytic latency with no contention, in cycles.

        See :meth:`RoutingTable.zero_load_latency`; on a bus an
        uncontended packet arrives *size_flits* cycles later.
        """
        self._check_terminal(src)
        self._check_terminal(dst)
        return self.routing.zero_load_latency(
            src, dst, self.router_delay, size_flits
        )

    def average_link_utilization(self) -> float:
        """Mean busy fraction over all router-to-router links."""
        horizon = self.sim.now
        if horizon <= 0:
            return 0.0
        pool = list(self.links.values())
        if self._bus is not None:
            pool = [self._bus]
        if not pool:
            return 0.0
        return sum(link.utilization(horizon) for link in pool) / len(pool)

    def peak_link_utilization(self) -> float:
        """Busy fraction of the most-loaded link (bottleneck indicator)."""
        horizon = self.sim.now
        if horizon <= 0:
            return 0.0
        pool = list(self.links.values())
        if self._bus is not None:
            pool = [self._bus]
        if not pool:
            return 0.0
        return max(link.utilization(horizon) for link in pool)
