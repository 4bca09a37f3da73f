"""NoC measurement harness.

:func:`simulate_traffic` runs a topology under a synthetic load and
returns a :class:`NocMetrics` record: average/percentile latency,
accepted throughput, link utilization and cost figures.  Experiment E10
sweeps this over topology x pattern x load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.noc.network import Network
from repro.noc.topology import Topology
from repro.noc.traffic import TrafficGenerator, TrafficPattern
from repro.sim.core import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.stats import Sampler


@dataclass(frozen=True)
class NocMetrics:
    """Results of one traffic simulation."""

    topology_name: str
    pattern: str
    offered_load: float          # flits/terminal/cycle offered
    accepted_load: float         # flits/terminal/cycle delivered
    avg_latency: float           # cycles, measured packets only
    max_latency: float
    min_latency: float
    delivered_packets: int
    injected_packets: int
    avg_link_utilization: float
    peak_link_utilization: float
    wiring_cost: float
    saturated: bool

    def as_row(self) -> dict:
        """Flat dict for tabular reporting."""
        return {
            "topology": self.topology_name,
            "pattern": self.pattern,
            "offered": round(self.offered_load, 4),
            "accepted": round(self.accepted_load, 4),
            "avg_latency": round(self.avg_latency, 2),
            "max_latency": round(self.max_latency, 2),
            "peak_link_util": round(self.peak_link_utilization, 3),
            "saturated": self.saturated,
        }


def simulate_traffic(
    topology: Topology,
    pattern: TrafficPattern,
    offered_load: float,
    duration: float = 5000.0,
    warmup: float = 1000.0,
    packet_size: int = 4,
    router_delay: float = 2.0,
    seed: int = 1,
    saturation_latency_factor: float = 8.0,
    mode: str = "des",
) -> NocMetrics:
    """Run one (topology, pattern, load) point and collect metrics.

    Packets injected during the first *warmup* cycles load the network
    but are excluded from latency statistics.  The run is flagged
    ``saturated`` when average measured latency exceeds
    *saturation_latency_factor* times the zero-load latency or when the
    network delivers markedly less than was offered.

    ``mode`` selects the evaluation backend: ``"des"`` is the
    packet-granular event simulation; ``"flow"`` computes the same
    metrics in closed form from per-(src, dst) demand matrices
    (:mod:`repro.noc.flow`) — orders of magnitude faster, validated
    against DES within the envelope documented in
    ``docs/performance.md``.
    """
    if mode == "flow":
        from repro.noc.flow import flow_traffic_metrics

        return flow_traffic_metrics(
            topology,
            pattern,
            offered_load,
            duration=duration,
            warmup=warmup,
            packet_size=packet_size,
            router_delay=router_delay,
            seed=seed,
            saturation_latency_factor=saturation_latency_factor,
        )
    if mode != "des":
        raise ValueError(f"unknown NoC mode {mode!r}; use 'des' or 'flow'")
    if warmup >= duration:
        raise ValueError(f"warmup {warmup} must be shorter than duration {duration}")
    sim = Simulator()
    network = Network(sim, topology, router_delay=router_delay)
    streams = RandomStreams(seed=seed)
    generator = TrafficGenerator(
        network,
        pattern,
        offered_load,
        packet_size=packet_size,
        streams=streams,
    )
    generator.start(duration)
    sim.run(until=duration)
    measured = Sampler()
    delivered = 0
    for packet in generator.sent:
        if packet.delivered_at is None:
            continue
        delivered += 1
        if packet.injected_at >= warmup:
            measured.add(packet.latency)
    terminals = topology.num_terminals
    window = duration
    accepted = network.delivered_flits / (terminals * window)
    # Zero-load reference: a representative medium-distance pair.
    ref = network.zero_load_latency(0, terminals // 2, packet_size)
    avg_latency = measured.mean if measured.count else float("inf")
    saturated = (
        avg_latency > saturation_latency_factor * ref
        or accepted < 0.75 * min(offered_load, 1.0)
    )
    return NocMetrics(
        topology_name=topology.name,
        pattern=pattern.value,
        offered_load=offered_load,
        accepted_load=accepted,
        avg_latency=avg_latency,
        max_latency=measured.maximum if measured.count else float("inf"),
        min_latency=measured.minimum if measured.count else float("inf"),
        delivered_packets=delivered,
        injected_packets=len(generator.sent),
        avg_link_utilization=network.average_link_utilization(),
        peak_link_utilization=network.peak_link_utilization(),
        wiring_cost=topology.wiring_cost(),
        saturated=saturated,
    )


def saturation_load(
    topology: Topology,
    pattern: TrafficPattern,
    loads: Optional[list[float]] = None,
    **kwargs,
) -> float:
    """Lowest offered load at which the network saturates.

    Sweeps *loads* (default 0.05..1.0) and returns the first saturated
    point, or ``inf`` if none saturates.
    """
    if loads is None:
        loads = [round(0.05 * i, 2) for i in range(1, 21)]
    for load in loads:
        metrics = simulate_traffic(topology, pattern, load, **kwargs)
        if metrics.saturated:
            return load
    return float("inf")
