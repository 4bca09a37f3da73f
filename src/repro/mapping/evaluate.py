"""Mapping evaluation: the analytic platform cost model.

Given a task graph, a platform description (PE kinds + NoC routing) and
a mapping, computes makespan by list scheduling in topological order:
each task starts when its processor is free and its inputs have arrived
(communication cost = bytes/link-bandwidth serialization + hop-distance
latency; zero between co-located tasks).  Also reports load imbalance
and total NoC traffic — the quantities the MultiFlex exploration loop
optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.mapping.taskgraph import TaskGraph
from repro.noc.routing import RoutingTable
from repro.noc.topology import Topology, TopologyKind

#: Type alias: task name -> PE index.
Mapping = Dict[str, int]


@dataclass(frozen=True)
class PlatformModel:
    """The slice of a platform the analytic evaluator needs."""

    pe_kinds: List[str]
    topology: Topology
    router_delay: float = 2.0
    link_bytes_per_cycle: float = 8.0

    @property
    def num_pes(self) -> int:
        return len(self.pe_kinds)


@dataclass(frozen=True)
class MappingCost:
    """Evaluation result for one mapping."""

    makespan_cycles: float
    total_comm_cycles: float
    load_imbalance: float     # max PE busy / mean PE busy
    noc_byte_hops: float      # traffic-distance product
    mapper: str = ""

    def as_row(self) -> dict:
        return {
            "mapper": self.mapper,
            "makespan": round(self.makespan_cycles, 1),
            "comm_cycles": round(self.total_comm_cycles, 1),
            "imbalance": round(self.load_imbalance, 3),
            "byte_hops": round(self.noc_byte_hops, 1),
        }


def communication_cycles(
    platform: PlatformModel,
    routing: RoutingTable,
    src_pe: int,
    dst_pe: int,
    bytes_transferred: float,
) -> float:
    """Cycles for a transfer between two PEs (0 if co-located)."""
    if src_pe == dst_pe:
        return 0.0
    topo = platform.topology
    if topo.kind is TopologyKind.BUS:
        hops = 1
    else:
        hops = routing.hops(
            topo.terminal_router[src_pe], topo.terminal_router[dst_pe]
        )
        hops = max(1, hops)
    serialization = bytes_transferred / platform.link_bytes_per_cycle
    return hops * platform.router_delay + serialization


def evaluate_mapping(
    graph: TaskGraph,
    platform: PlatformModel,
    mapping: Mapping,
    routing: Optional[RoutingTable] = None,
    mapper_name: str = "",
) -> MappingCost:
    """List-schedule the mapped graph and report costs.

    This is the reference scheduling law and the test oracle.
    LOCKSTEP: the one optimized kernel,
    :meth:`repro.mapping.evaluator.MappingEvaluator._schedule`, must
    stay bit-identical with it, so every cost-model change is made in
    both.

    *routing* is required (it was deprecated-optional in PR 2, a hard
    error since PR 3): pass
    ``cached_routing(platform.topology)`` — see
    :func:`repro.noc.routing.cached_routing` — or use
    :class:`repro.mapping.evaluator.MappingEvaluator`, which also
    precomputes the per-(graph, platform) arrays.
    """
    _validate(graph, platform, mapping)
    if routing is None:
        raise TypeError(
            "evaluate_mapping() requires a routing table; pass "
            "repro.noc.routing.cached_routing(platform.topology) (shared "
            "BFS memo) or use repro.mapping.evaluator.MappingEvaluator"
        )
    pe_free = [0.0] * platform.num_pes
    pe_busy = [0.0] * platform.num_pes
    finish: Dict[str, float] = {}
    total_comm = 0.0
    byte_hops = 0.0
    for name in graph.topological_order():
        task = graph.tasks[name]
        pe = mapping[name]
        ready = 0.0
        for pred in graph.predecessors(name):
            volume = graph.edges[(pred, name)]
            comm = communication_cycles(
                platform, routing, mapping[pred], pe, volume
            )
            total_comm += comm
            if mapping[pred] != pe:
                src_r = platform.topology.terminal_router[mapping[pred]]
                dst_r = platform.topology.terminal_router[pe]
                hops = (
                    1
                    if platform.topology.kind is TopologyKind.BUS
                    else max(1, routing.hops(src_r, dst_r))
                )
                byte_hops += volume * hops
            ready = max(ready, finish[pred] + comm)
        start = max(ready, pe_free[pe])
        duration = task.cycles_on(platform.pe_kinds[pe])
        finish[name] = start + duration
        pe_free[pe] = finish[name]
        pe_busy[pe] += duration
    makespan = max(finish.values(), default=0.0)
    mean_busy = sum(pe_busy) / len(pe_busy) if pe_busy else 0.0
    imbalance = max(pe_busy) / mean_busy if mean_busy > 0 else float("inf")
    return MappingCost(
        makespan_cycles=makespan,
        total_comm_cycles=total_comm,
        load_imbalance=imbalance,
        noc_byte_hops=byte_hops,
        mapper=mapper_name,
    )


def _validate(graph: TaskGraph, platform: PlatformModel, mapping: Mapping) -> None:
    missing = set(graph.tasks) - set(mapping)
    if missing:
        raise ValueError(f"mapping misses tasks: {sorted(missing)[:5]}")
    for name, pe in mapping.items():
        if name not in graph.tasks:
            raise ValueError(f"mapping contains unknown task {name!r}")
        if not 0 <= pe < platform.num_pes:
            raise ValueError(
                f"task {name!r} mapped to PE {pe}, platform has "
                f"{platform.num_pes}"
            )
