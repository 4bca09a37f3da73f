"""Deterministic minimal routing with equal-cost path spreading.

Routing tables are precomputed with breadth-first search.  Where several
minimal next hops exist (fat trees, tori, crossbars), the table keeps
them all and spreads *flows* across them with a deterministic hash of
(source, destination), i.e. per-flow ECMP: a given terminal pair always
uses the same path (preserving in-order delivery) while aggregate
traffic uses the full bisection — the property SPIN-style fat trees are
built for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.noc.topology import Topology, TopologyKind

#: Knuth multiplicative hash constant for flow spreading.
_HASH_MULT = 2654435761

#: Terminal-pair -> flow id derivation shared by both NoC models:
#: ``flow = src * FLOW_ID_MULT + dst``.  The DES network and the
#: analytic flow model must both use this constant so their ECMP path
#: choices (and therefore link accounting) coincide.
FLOW_ID_MULT = 65537


def _flow_hash(flow: int, node: int, dst: int) -> int:
    value = (flow * _HASH_MULT) ^ (node * 40503) ^ (dst * 65599)
    return (value >> 4) & 0x7FFFFFFF


@dataclass
class RoutingTable:
    """Minimal next-hop choice sets for every (router, destination)."""

    topology: Topology
    next_hops: List[List[List[int]]]  # next_hops[router][dst] -> choices
    distance: List[List[int]]         # hop counts
    #: memoized route() paths keyed by (src, dst, flow); the path walk
    #: is deterministic, so each flow's path is computed exactly once.
    _path_cache: Dict[Tuple[int, int, int], List[int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def route(self, src_router: int, dst_router: int, flow: int = 0) -> List[int]:
        """Full router path, inclusive; *flow* selects among ECMP paths.

        Paths are memoized per (src, dst, flow); treat the returned
        list as read-only.
        """
        key = (src_router, dst_router, flow)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        if src_router == dst_router:
            path = [src_router]
            self._path_cache[key] = path
            return path
        path = [src_router]
        current = src_router
        limit = self.topology.num_routers + 1
        while current != dst_router:
            choices = self.next_hops[current][dst_router]
            if not choices:
                raise ValueError(
                    f"no route from router {src_router} to {dst_router}"
                )
            nxt = choices[_flow_hash(flow, current, dst_router) % len(choices)]
            path.append(nxt)
            current = nxt
            if len(path) > limit:  # pragma: no cover - defensive
                raise RuntimeError("routing loop detected")
        self._path_cache[key] = path
        return path

    def hops(self, src_router: int, dst_router: int) -> int:
        """Hop count between two routers (0 when identical)."""
        d = self.distance[src_router][dst_router]
        if d < 0:
            raise ValueError(f"routers {src_router},{dst_router} disconnected")
        return d

    def zero_load_latency(
        self, src: int, dst: int, router_delay: float, size_flits: int
    ) -> float:
        """Uncontended terminal-to-terminal latency of both NoC models.

        Injection serialization, per hop router delay plus link
        serialization (one router delay between terminals on one
        router), then ejection serialization; a bus pays its
        serialization plus one router delay.  On a bus an uncontended
        DES packet also serializes on its ejection link, so it arrives
        *size_flits* cycles later (10 vs 6 cycles for 4 flits on
        ``bus(8)``).  ``simulate_traffic``'s saturation threshold reads
        this value, so it stays as it is: correcting it changes E10.
        """
        topo = self.topology
        if topo.kind is TopologyKind.BUS:
            return size_flits + router_delay
        src_router = topo.terminal_router[src]
        dst_router = topo.terminal_router[dst]
        if src_router == dst_router:
            return size_flits + router_delay + size_flits
        hops = self.hops(src_router, dst_router)
        return size_flits + hops * (router_delay + size_flits) + size_flits


def build_routing(topology: Topology) -> RoutingTable:
    """BFS all-pairs minimal routing keeping every equal-cost next hop."""
    n = topology.num_routers
    rev: Dict[int, List[int]] = {r: [] for r in range(n)}
    for u, v in topology.edges:
        rev[v].append(u)
    for r in rev:
        rev[r] = sorted(rev[r])
    next_hops: List[List[List[int]]] = [
        [[] for _ in range(n)] for _ in range(n)
    ]
    distance = [[-1] * n for _ in range(n)]
    for dst in range(n):
        dist: List[Optional[int]] = [None] * n
        dist[dst] = 0
        queue = deque([dst])
        while queue:
            node = queue.popleft()
            for prev in rev[node]:
                if dist[prev] is None:
                    dist[prev] = dist[node] + 1
                    next_hops[prev][dst].append(node)
                    queue.append(prev)
                elif dist[prev] == dist[node] + 1:
                    next_hops[prev][dst].append(node)
        for r in range(n):
            distance[r][dst] = -1 if dist[r] is None else dist[r]
            next_hops[r][dst].sort()
    return RoutingTable(
        topology=topology, next_hops=next_hops, distance=distance
    )


#: structural-key -> RoutingTable memo for :func:`cached_routing`.
_ROUTING_CACHE: Dict[tuple, RoutingTable] = {}
_ROUTING_CACHE_MAX = 128


def _topology_key(topology: Topology) -> tuple:
    """Structural identity of a topology (Topology is mutable)."""
    return (
        topology.kind,
        topology.num_routers,
        tuple(topology.edges),
        tuple(topology.terminal_router),
    )


def cached_routing(topology: Topology) -> RoutingTable:
    """A shared, memoized routing table for *topology*.

    BFS-all-pairs table construction is the dominant setup cost of
    every NoC model; structurally identical topologies (same kind,
    router count, edges and terminal attachments) share one table, so
    sweeps over (load, mapper, seed) build routing exactly once per
    topology.  The returned table is shared — treat it as read-only.
    """
    key = _topology_key(topology)
    table = _ROUTING_CACHE.get(key)
    if table is None:
        if len(_ROUTING_CACHE) >= _ROUTING_CACHE_MAX:
            _ROUTING_CACHE.clear()
        table = build_routing(topology)
        _ROUTING_CACHE[key] = table
    return table
