"""NoC topology builders.

A :class:`Topology` is a directed multigraph of routers plus a mapping
from *terminals* (the network interfaces that processors, memories and
I/O blocks plug into) to their attachment routers.  Builders cover the
spectrum the paper names in Section 6.1 — "ranging from bus, ring, tree
to full-crossbar" — plus the 2-D mesh/torus used by most published NoCs
and the SPIN fat tree developed with UPMC/LIP6 (Section 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Tuple


class TopologyKind(Enum):
    """Supported interconnect topologies."""

    BUS = "bus"
    RING = "ring"
    MESH = "mesh"
    TORUS = "torus"
    TREE = "tree"
    FAT_TREE = "fat_tree"
    CROSSBAR = "crossbar"
    STAR = "star"


@dataclass
class Topology:
    """A router graph with terminal attachment points.

    Attributes
    ----------
    kind:
        Which family this topology belongs to.
    num_routers:
        Routers are integers ``0 .. num_routers-1``.
    edges:
        Directed router-to-router links as ``(u, v)`` pairs.  Links are
        unidirectional; bidirectional connectivity needs both pairs.
    terminal_router:
        ``terminal_router[t]`` is the router terminal ``t`` attaches to.
    name:
        Human-readable label for reports.
    """

    kind: TopologyKind
    num_routers: int
    edges: List[Tuple[int, int]]
    terminal_router: List[int]
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_routers < 1:
            raise ValueError(f"topology needs >=1 router, got {self.num_routers}")
        for u, v in self.edges:
            if not (0 <= u < self.num_routers and 0 <= v < self.num_routers):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at router {u}")
        for t, r in enumerate(self.terminal_router):
            if not 0 <= r < self.num_routers:
                raise ValueError(f"terminal {t} attached to bad router {r}")
        if not self.name:
            self.name = f"{self.kind.value}-{self.num_terminals}"

    @property
    def num_terminals(self) -> int:
        return len(self.terminal_router)

    @property
    def num_links(self) -> int:
        return len(self.edges)

    def neighbors(self, router: int) -> List[int]:
        """Routers reachable from *router* over one link."""
        return [v for (u, v) in self.edges if u == router]

    def adjacency(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {r: [] for r in range(self.num_routers)}
        for u, v in self.edges:
            adj[u].append(v)
        return adj

    def degree_histogram(self) -> Dict[int, int]:
        """Out-degree histogram, a proxy for router port-count cost."""
        adj = self.adjacency()
        hist: Dict[int, int] = {}
        for r in range(self.num_routers):
            d = len(adj[r])
            hist[d] = hist.get(d, 0) + 1
        return hist

    def wiring_cost(self) -> float:
        """Relative wiring cost: links weighted by router radix squared.

        Router area grows roughly with the square of its port count
        (crossbar inside each router), links linearly.
        """
        adj = self.adjacency()
        in_deg: Dict[int, int] = {r: 0 for r in range(self.num_routers)}
        for _u, v in self.edges:
            in_deg[v] += 1
        router_cost = sum(
            (len(adj[r]) + in_deg[r] + 2) ** 2 / 4.0  # +2 for the local port
            for r in range(self.num_routers)
        )
        return len(self.edges) + router_cost


def _bidir(pairs: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Expand undirected pairs to both directed edges."""
    out: List[Tuple[int, int]] = []
    for u, v in pairs:
        out.append((u, v))
        out.append((v, u))
    return out


def bus(terminals: int) -> Topology:
    """A shared bus: one central arbiter 'router' all terminals share.

    All traffic serializes through the single router, so the bus
    saturates first as load grows — the paper's motivation for moving
    "away from traditional shared buses".
    """
    if terminals < 2:
        raise ValueError(f"bus needs >=2 terminals, got {terminals}")
    return Topology(
        kind=TopologyKind.BUS,
        num_routers=1,
        edges=[],
        terminal_router=[0] * terminals,
        name=f"bus-{terminals}",
    )


def ring(terminals: int) -> Topology:
    """A bidirectional ring, one router per terminal."""
    if terminals < 3:
        raise ValueError(f"ring needs >=3 terminals, got {terminals}")
    pairs = [(i, (i + 1) % terminals) for i in range(terminals)]
    return Topology(
        kind=TopologyKind.RING,
        num_routers=terminals,
        edges=_bidir(pairs),
        terminal_router=list(range(terminals)),
        name=f"ring-{terminals}",
    )


def mesh(terminals: int, width: int | None = None) -> Topology:
    """A 2-D mesh; *terminals* must form a rectangle.

    If *width* is omitted the squarest factorization is chosen.
    """
    width, height = _grid_dims(terminals, width)
    pairs = []
    for y in range(height):
        for x in range(width):
            i = y * width + x
            if x + 1 < width:
                pairs.append((i, i + 1))
            if y + 1 < height:
                pairs.append((i, i + width))
    return Topology(
        kind=TopologyKind.MESH,
        num_routers=terminals,
        edges=_bidir(pairs),
        terminal_router=list(range(terminals)),
        name=f"mesh-{width}x{height}",
    )


def torus(terminals: int, width: int | None = None) -> Topology:
    """A 2-D torus (mesh with wraparound links)."""
    width, height = _grid_dims(terminals, width)
    if width < 3 or height < 3:
        raise ValueError(
            f"torus needs >=3 routers per dimension, got {width}x{height}"
        )
    pairs = []
    for y in range(height):
        for x in range(width):
            i = y * width + x
            pairs.append((i, y * width + (x + 1) % width))
            pairs.append((i, ((y + 1) % height) * width + x))
    return Topology(
        kind=TopologyKind.TORUS,
        num_routers=terminals,
        edges=_bidir(pairs),
        terminal_router=list(range(terminals)),
        name=f"torus-{width}x{height}",
    )


def tree(terminals: int, arity: int = 2) -> Topology:
    """A balanced tree with terminals at the leaves.

    Internal routers form the trunk; the root is a bandwidth bottleneck
    (fixed by the fat tree below).
    """
    if terminals < 2:
        raise ValueError(f"tree needs >=2 terminals, got {terminals}")
    if arity < 2:
        raise ValueError(f"tree arity must be >=2, got {arity}")
    levels = max(1, math.ceil(math.log(terminals, arity)))
    leaves = arity ** levels
    # Internal nodes of a complete arity-ary tree with `leaves` leaves.
    internal = (leaves - 1) // (arity - 1)
    pairs = []
    for parent in range(internal):
        for c in range(arity):
            child = parent * arity + 1 + c
            if child < internal + leaves:
                pairs.append((parent, child))
    terminal_router = [internal + (t % leaves) for t in range(terminals)]
    # Leaf routers are 'internal + leaf_index'; but children numbering maps
    # leaves into [internal, internal+leaves). Re-map edges accordingly:
    # in the heap numbering, nodes >= internal are leaves already.
    return Topology(
        kind=TopologyKind.TREE,
        num_routers=internal + leaves,
        edges=_bidir(pairs),
        terminal_router=terminal_router,
        name=f"tree-{arity}ary-{terminals}",
    )


def fat_tree(terminals: int, arity: int = 4) -> Topology:
    """A SPIN-style fat tree: full bandwidth preserved toward the root.

    Level 0 holds ``terminals/arity`` leaf routers, each serving *arity*
    terminals.  Each level above replicates routers so aggregate
    bandwidth is constant per level; every router connects to every
    router of the group above it, mirroring the SPIN micro-network the
    paper co-developed with UPMC/LIP6 [8].
    """
    if terminals < 2:
        raise ValueError(f"fat tree needs >=2 terminals, got {terminals}")
    if arity < 2:
        raise ValueError(f"fat tree arity must be >=2, got {arity}")
    groups = max(2, -(-terminals // arity))
    # Simple 2-level SPIN: leaves plus a root stage of `groups//2` routers.
    leaf_routers = list(range(groups))
    root_count = max(1, groups // 2)
    root_routers = list(range(groups, groups + root_count))
    pairs = []
    for leaf in leaf_routers:
        for root in root_routers:
            pairs.append((leaf, root))
    terminal_router = [min(t // arity, groups - 1) for t in range(terminals)]
    return Topology(
        kind=TopologyKind.FAT_TREE,
        num_routers=groups + root_count,
        edges=_bidir(pairs),
        terminal_router=terminal_router,
        name=f"fat-tree-{terminals}",
    )


def crossbar(terminals: int) -> Topology:
    """A full crossbar: every terminal pair has a dedicated path.

    Modelled as one router per terminal with a complete directed graph;
    the quadratic wiring cost shows up in :meth:`Topology.wiring_cost`.
    """
    if terminals < 2:
        raise ValueError(f"crossbar needs >=2 terminals, got {terminals}")
    edges = [
        (u, v)
        for u in range(terminals)
        for v in range(terminals)
        if u != v
    ]
    return Topology(
        kind=TopologyKind.CROSSBAR,
        num_routers=terminals,
        edges=edges,
        terminal_router=list(range(terminals)),
        name=f"crossbar-{terminals}",
    )


def star(terminals: int) -> Topology:
    """A star: all terminals hang off one central router."""
    if terminals < 2:
        raise ValueError(f"star needs >=2 terminals, got {terminals}")
    center = terminals
    pairs = [(i, center) for i in range(terminals)]
    return Topology(
        kind=TopologyKind.STAR,
        num_routers=terminals + 1,
        edges=_bidir(pairs),
        terminal_router=list(range(terminals)),
        name=f"star-{terminals}",
    )


def make_topology(kind: TopologyKind | str, terminals: int) -> Topology:
    """Build a topology by kind name with default parameters."""
    if isinstance(kind, str):
        kind = TopologyKind(kind)
    builders = {
        TopologyKind.BUS: bus,
        TopologyKind.RING: ring,
        TopologyKind.MESH: mesh,
        TopologyKind.TORUS: torus,
        TopologyKind.TREE: tree,
        TopologyKind.FAT_TREE: fat_tree,
        TopologyKind.CROSSBAR: crossbar,
        TopologyKind.STAR: star,
    }
    return builders[kind](terminals)


def _grid_dims(terminals: int, width: int | None) -> Tuple[int, int]:
    if terminals < 2:
        raise ValueError(f"grid needs >=2 terminals, got {terminals}")
    if width is None:
        width = int(math.sqrt(terminals))
        while terminals % width:
            width -= 1
    if width < 1 or terminals % width:
        raise ValueError(f"{terminals} terminals do not fill width {width}")
    return width, terminals // width
