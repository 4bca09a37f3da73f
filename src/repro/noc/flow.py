"""Batched flow-level NoC evaluation (the analytic fast path).

The event-driven :class:`~repro.noc.network.Network` simulates every
packet hop; that fidelity is needed for closed-loop workloads (DSOC
request/response, OCP split transactions) but is overkill for the
open-loop characterization sweeps of E10/A1, where only *steady-state*
metrics are read off.  This module evaluates the same metrics in closed
form:

1. a per-(src, dst) terminal **demand matrix** (expected flits per
   cycle) is derived from the traffic pattern — the same patterns
   :class:`~repro.noc.traffic.TrafficPattern` injects stochastically;
2. the demand is **pushed through the shared routing tables**
   (:func:`~repro.noc.routing.cached_routing`, including the per-flow
   ECMP hash the event model uses) accumulating per-link flit loads;
   the reductions are sequential ``sum()`` calls in a fixed order,
   which keeps flow metrics bit-exact;
3. per-link waiting times follow the M/D/1 queue (Poisson arrivals —
   the generators draw exponential gaps — and deterministic
   serialization), with a linear backlog-growth term for overloaded
   links, yielding per-pair latencies, accepted throughput and the
   saturation flag with the exact decision rule
   :func:`~repro.noc.metrics.simulate_traffic` applies.

The result is a :class:`~repro.noc.metrics.NocMetrics` with the same
fields as a DES run, computed in microseconds instead of seconds, and
cross-validated against the event model by ``tests/noc/test_flow.py``
(see the validity envelope in ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.noc.routing import FLOW_ID_MULT, RoutingTable, cached_routing
from repro.noc.topology import Topology, TopologyKind
from repro.noc.traffic import TrafficPattern


def demand_matrix(
    topology: Topology,
    pattern: TrafficPattern,
    offered_load: float,
    hotspot: int = 0,
    hotspot_fraction: float = 0.5,
) -> List[List[float]]:
    """Expected flits/cycle from each source to each destination.

    Mirrors :meth:`TrafficPattern.destination`'s selection law in
    expectation: uniform spreads over the other ``N - 1`` terminals,
    the deterministic patterns concentrate the full load on one
    destination, and hotspot mixes the two.
    """
    if offered_load <= 0:
        raise ValueError(f"offered load must be positive, got {offered_load}")
    n = topology.num_terminals
    demand = [[0.0] * n for _ in range(n)]
    if n < 2:
        return demand
    uniform_share = offered_load / (n - 1)
    for src in range(n):
        if pattern is TrafficPattern.UNIFORM:
            for dst in range(n):
                if dst != src:
                    demand[src][dst] = uniform_share
        elif pattern is TrafficPattern.HOTSPOT:
            if src == hotspot:
                for dst in range(n):
                    if dst != src:
                        demand[src][dst] = uniform_share
            else:
                spread = (1.0 - hotspot_fraction) * uniform_share
                for dst in range(n):
                    if dst != src:
                        demand[src][dst] = spread
                demand[src][hotspot] += hotspot_fraction * offered_load
        else:
            # TRANSPOSE / BIT_COMPLEMENT / NEIGHBOR are deterministic.
            rng = _NoRng()
            dst = pattern.destination(src, n, rng)
            demand[src][dst] = offered_load
    return demand


class _NoRng:
    """Guard RNG for deterministic patterns (they must not draw)."""

    def randrange(self, *_a):  # pragma: no cover - defensive
        raise RuntimeError("deterministic pattern drew from the RNG")

    def random(self):  # pragma: no cover - defensive
        raise RuntimeError("deterministic pattern drew from the RNG")


@dataclass
class FlowSolution:
    """Per-link steady-state loads for one demand matrix."""

    topology: Topology
    routing: RoutingTable
    #: flits/cycle entering each router-to-router link (or the bus).
    link_load: Dict[Tuple[int, int], float]
    injection_load: List[float]
    ejection_load: List[float]
    bus_load: float
    #: router path (inclusive) used by each nonzero (src, dst) pair.
    pair_paths: Dict[Tuple[int, int], List[int]]


class FlowModel:
    """Closed-form NoC evaluation for one topology.

    Shares the memoized routing table with the event model, so a flow
    evaluation never re-runs BFS, and derives flow ids with the shared
    :data:`~repro.noc.routing.FLOW_ID_MULT` constant, so flow-mode
    link loads land on the same ECMP links DES packets traverse.
    """

    def __init__(
        self,
        topology: Topology,
        router_delay: float = 2.0,
        link_bandwidth: float = 1.0,
        injection_bandwidth: float = 1.0,
    ) -> None:
        if router_delay < 0:
            raise ValueError(f"negative router delay {router_delay}")
        self.topology = topology
        self.routing = cached_routing(topology)
        self.router_delay = router_delay
        self.link_bandwidth = link_bandwidth
        self.injection_bandwidth = injection_bandwidth
        self.is_bus = topology.kind is TopologyKind.BUS

    # -- structure ----------------------------------------------------------

    def pair_path(self, src: int, dst: int) -> List[int]:
        """Router path for a terminal pair (same ECMP choice as DES)."""
        tr = self.topology.terminal_router
        return self.routing.route(
            tr[src], tr[dst], flow=src * FLOW_ID_MULT + dst
        )

    def zero_load_latency(self, src: int, dst: int, size_flits: int = 4) -> float:
        """Uncontended latency: :meth:`RoutingTable.zero_load_latency`."""
        return self.routing.zero_load_latency(
            src, dst, self.router_delay, size_flits
        )

    # -- solving ------------------------------------------------------------

    def push(self, demand: List[List[float]]) -> FlowSolution:
        """Accumulate a demand matrix onto the links it routes over."""
        n = self.topology.num_terminals
        link_load: Dict[Tuple[int, int], float] = {
            edge: 0.0 for edge in self.topology.edges
        }
        injection = [0.0] * n
        ejection = [0.0] * n
        bus_load = 0.0
        pair_paths: Dict[Tuple[int, int], List[int]] = {}
        for src in range(n):
            row = demand[src]
            for dst in range(n):
                rate = row[dst]
                if rate <= 0.0 or dst == src:
                    continue
                injection[src] += rate
                ejection[dst] += rate
                if self.is_bus:
                    bus_load += rate
                    continue
                path = self.pair_path(src, dst)
                pair_paths[(src, dst)] = path
                for i in range(len(path) - 1):
                    link_load[(path[i], path[i + 1])] += rate
        return FlowSolution(
            topology=self.topology,
            routing=self.routing,
            link_load=link_load,
            injection_load=injection,
            ejection_load=ejection,
            bus_load=bus_load,
            pair_paths=pair_paths,
        )

    # -- queueing -----------------------------------------------------------

    def _wait(self, rho: float, service: float, horizon_mid: float) -> float:
        """Expected waiting time at one link.

        Stable links follow the M/D/1 mean wait
        ``rho * S / (2 * (1 - rho))``, capped at the **critical knee**
        ``sqrt(S * horizon_mid / 2)`` — the diffusion-scale backlog a
        critically loaded queue accumulates over a finite window (the
        steady-state formula diverges at the pole, but a run of length
        ~2*horizon_mid can never observe it).  Overloaded links start
        at that same knee and add the linear backlog-growth term
        ``(rho - 1) * horizon_mid`` (the average over arrivals spread
        across the run), capped at *horizon_mid*.  The two branches
        meet at ``rho = 1``, so the wait is continuous and monotone in
        load — saturation sweeps cannot see latency *drop* as a link
        crosses its capacity.
        """
        if rho <= 0.0:
            return 0.0
        knee = (service * horizon_mid / 2.0) ** 0.5
        if rho < 1.0:
            return min(rho * service / (2.0 * (1.0 - rho)), knee)
        return min(knee + (rho - 1.0) * horizon_mid, horizon_mid)

    def evaluate(
        self,
        pattern: TrafficPattern,
        offered_load: float,
        duration: float = 5000.0,
        warmup: float = 1000.0,
        packet_size: int = 4,
        hotspot: int = 0,
        hotspot_fraction: float = 0.5,
        saturation_latency_factor: float = 8.0,
    ) -> "NocMetrics":
        """One (pattern, load) point as a :class:`NocMetrics` record."""
        from repro.noc.metrics import NocMetrics

        if warmup >= duration:
            raise ValueError(
                f"warmup {warmup} must be shorter than duration {duration}"
            )
        topo = self.topology
        n = topo.num_terminals
        demand = demand_matrix(
            topo, pattern, offered_load, hotspot, hotspot_fraction
        )
        solution = self.push(demand)
        service = packet_size / self.link_bandwidth
        inj_service = packet_size / self.injection_bandwidth
        horizon_mid = (warmup + duration) / 2.0

        # Per-link utilization and waiting time.  The reductions are
        # sequential sum()s over the link list in a fixed order: a
        # pairwise or reordered sum differs in the last ulp, and the
        # flow metrics are pinned bit-exact.
        bw = self.link_bandwidth
        if self.is_bus:
            rho_bus = solution.bus_load / bw
            link_utils = [min(1.0, rho_bus)]
            bus_wait = self._wait(rho_bus, service, horizon_mid)
        else:
            link_utils = [
                min(1.0, ld / bw) for ld in solution.link_load.values()
            ]
            wait_by_link = {
                link: self._wait(load / bw, service, horizon_mid)
                for link, load in solution.link_load.items()
            }
            rho_by_link = {
                link: load / bw for link, load in solution.link_load.items()
            }

        # Per-pair latency and delivered fraction.
        total_rate = 0.0
        delivered_rate = 0.0
        weighted_latency = 0.0
        min_latency = float("inf")
        max_latency = 0.0
        for src in range(n):
            row = demand[src]
            for dst in range(n):
                rate = row[dst]
                if rate <= 0.0 or dst == src:
                    continue
                total_rate += rate
                base = self.zero_load_latency(src, dst, packet_size)
                inj_rho = solution.injection_load[src] / self.injection_bandwidth
                ej_rho = solution.ejection_load[dst] / self.injection_bandwidth
                wait = self._wait(inj_rho, inj_service, horizon_mid)
                wait += self._wait(ej_rho, inj_service, horizon_mid)
                bottleneck = max(inj_rho, ej_rho)
                if self.is_bus:
                    wait += bus_wait
                    bottleneck = max(bottleneck, rho_bus)
                else:
                    path = solution.pair_paths.get((src, dst))
                    if path:
                        for i in range(len(path) - 1):
                            link = (path[i], path[i + 1])
                            wait += wait_by_link[link]
                            rho = rho_by_link[link]
                            if rho > bottleneck:
                                bottleneck = rho
                latency = base + wait
                # A flow through an overloaded link only delivers the
                # bottleneck's share of its demand.
                fraction = 1.0 if bottleneck <= 1.0 else 1.0 / bottleneck
                delivered_rate += rate * fraction
                weighted_latency += rate * fraction * latency
                if latency < min_latency:
                    min_latency = latency
                if latency > max_latency:
                    max_latency = latency

        accepted = delivered_rate / n if n else 0.0
        avg_latency = (
            weighted_latency / delivered_rate
            if delivered_rate > 0
            else float("inf")
        )
        # Expected packet counts over the run (the DES fields they map
        # to are realized draws; these are their means).
        injected = int(round(total_rate / packet_size * duration))
        delivered = int(round(delivered_rate / packet_size * duration))

        ref = self.zero_load_latency(0, n // 2, packet_size)
        saturated = (
            avg_latency > saturation_latency_factor * ref
            or accepted < 0.75 * min(offered_load, 1.0)
        )
        if self.is_bus:
            avg_util = peak_util = min(1.0, rho_bus)
        elif not link_utils:
            avg_util = peak_util = 0.0
        else:
            avg_util = sum(link_utils) / len(link_utils)
            peak_util = max(link_utils)
        return NocMetrics(
            topology_name=topo.name,
            pattern=pattern.value,
            offered_load=offered_load,
            accepted_load=accepted,
            avg_latency=avg_latency,
            max_latency=max_latency if delivered_rate > 0 else float("inf"),
            min_latency=min_latency if delivered_rate > 0 else float("inf"),
            delivered_packets=delivered,
            injected_packets=injected,
            avg_link_utilization=avg_util,
            peak_link_utilization=peak_util,
            wiring_cost=topo.wiring_cost(),
            saturated=saturated,
        )


def flow_traffic_metrics(
    topology: Topology,
    pattern: TrafficPattern,
    offered_load: float,
    duration: float = 5000.0,
    warmup: float = 1000.0,
    packet_size: int = 4,
    router_delay: float = 2.0,
    seed: int = 1,
    saturation_latency_factor: float = 8.0,
) -> "NocMetrics":
    """Drop-in flow-mode counterpart of :func:`simulate_traffic`.

    Deterministic: *seed* is accepted for signature compatibility and
    ignored (the flow model computes expectations, not sample paths).
    """
    del seed
    model = FlowModel(topology, router_delay=router_delay)
    return model.evaluate(
        pattern,
        offered_load,
        duration=duration,
        warmup=warmup,
        packet_size=packet_size,
        saturation_latency_factor=saturation_latency_factor,
    )
