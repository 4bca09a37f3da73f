"""Application task graphs.

A :class:`TaskGraph` is a DAG of :class:`Task` nodes (compute weight in
reference-RISC cycles, optional per-processor-kind speedups) with
weighted edges (bytes communicated).  Generators produce the structures
the paper's driver domains exhibit: packet-processing pipelines,
fork-join data parallelism, and layered random DAGs for stress tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class Task:
    """One schedulable unit of application work.

    Attributes
    ----------
    name:
        Unique task name.
    compute_cycles:
        Cycles on the reference (GP RISC) processor.
    affinity:
        Optional per-processor-kind speedup factors, e.g.
        ``{"dsp": 4.0}`` — the task runs 4x faster on a DSP.
    """

    name: str
    compute_cycles: float
    affinity: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.compute_cycles < 0:
            raise ValueError(f"task {self.name!r}: negative compute weight")
        for kind, factor in self.affinity:
            if factor <= 0:
                raise ValueError(
                    f"task {self.name!r}: non-positive affinity for {kind!r}"
                )

    def cycles_on(self, pe_kind: str) -> float:
        """Cycles when run on a processor of *pe_kind*."""
        for kind, factor in self.affinity:
            if kind == pe_kind:
                return self.compute_cycles / factor
        return self.compute_cycles


class TaskGraph:
    """A DAG of tasks with communication volumes on edges."""

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self.tasks: Dict[str, Task] = {}
        self.edges: Dict[Tuple[str, str], float] = {}
        self._succ: Dict[str, List[str]] = {}
        self._pred: Dict[str, List[str]] = {}

    def add_task(self, task: Task) -> Task:
        if task.name in self.tasks:
            raise ValueError(f"duplicate task {task.name!r}")
        self.tasks[task.name] = task
        self._succ[task.name] = []
        self._pred[task.name] = []
        return task

    def add_edge(self, src: str, dst: str, bytes_transferred: float) -> None:
        for name in (src, dst):
            if name not in self.tasks:
                raise ValueError(f"unknown task {name!r}")
        if src == dst:
            raise ValueError(f"self-edge on task {src!r}")
        if (src, dst) in self.edges:
            raise ValueError(f"duplicate edge {src!r}->{dst!r}")
        if bytes_transferred < 0:
            raise ValueError(f"negative transfer on {src!r}->{dst!r}")
        self.edges[(src, dst)] = bytes_transferred
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        if self._has_cycle():
            # Roll back to keep the graph usable.
            del self.edges[(src, dst)]
            self._succ[src].remove(dst)
            self._pred[dst].remove(src)
            raise ValueError(f"edge {src!r}->{dst!r} would create a cycle")

    def predecessors(self, name: str) -> List[str]:
        return list(self._pred[name])

    def topological_order(self) -> List[str]:
        """Kahn topological sort (deterministic by insertion order)."""
        in_degree = {name: len(self._pred[name]) for name in self.tasks}
        ready = [name for name in self.tasks if in_degree[name] == 0]
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for succ in self._succ[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.tasks):  # pragma: no cover - guarded by add_edge
            raise ValueError("task graph contains a cycle")
        return order

    def total_compute(self) -> float:
        return sum(t.compute_cycles for t in self.tasks.values())

    def critical_path_cycles(self) -> float:
        """Longest compute path ignoring communication (lower bound)."""
        longest: Dict[str, float] = {}
        for name in self.topological_order():
            task = self.tasks[name]
            best_pred = max(
                (longest[p] for p in self._pred[name]), default=0.0
            )
            longest[name] = best_pred + task.compute_cycles
        return max(longest.values(), default=0.0)

    def _has_cycle(self) -> bool:
        in_degree = {name: len(self._pred[name]) for name in self.tasks}
        ready = [name for name in self.tasks if in_degree[name] == 0]
        seen = 0
        while ready:
            name = ready.pop()
            seen += 1
            for succ in self._succ[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        return seen != len(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)


def layered_random_graph(
    tasks: int,
    layers: int = 5,
    edge_probability: float = 0.3,
    seed: int = 7,
    min_cycles: float = 200.0,
    max_cycles: float = 4000.0,
    max_bytes: float = 1024.0,
) -> TaskGraph:
    """A layered random DAG (TGFF-style) for mapper stress tests."""
    if tasks < layers:
        raise ValueError(f"need tasks >= layers ({tasks} < {layers})")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must be in [0,1]")
    rng = RandomStreams(seed).get("taskgraph")
    graph = TaskGraph(name=f"random-{tasks}")
    layer_of: Dict[str, int] = {}
    names_by_layer: List[List[str]] = [[] for _ in range(layers)]
    for index in range(tasks):
        layer = index % layers
        name = f"t{index}"
        cycles = rng.uniform(min_cycles, max_cycles)
        # Give a third of tasks a DSP/ASIP affinity to exercise
        # heterogeneity-aware mapping.
        affinity: Tuple[Tuple[str, float], ...] = ()
        roll = rng.random()
        if roll < 0.2:
            affinity = (("dsp", rng.uniform(2.0, 5.0)),)
        elif roll < 0.33:
            affinity = (("asip", rng.uniform(4.0, 10.0)),)
        graph.add_task(Task(name, cycles, affinity))
        layer_of[name] = layer
        names_by_layer[layer].append(name)
    for layer in range(layers - 1):
        for src in names_by_layer[layer]:
            for dst in names_by_layer[layer + 1]:
                if rng.random() < edge_probability:
                    graph.add_edge(src, dst, rng.uniform(32.0, max_bytes))
    # Guarantee weak connectivity layer to layer.
    for layer in range(layers - 1):
        src = names_by_layer[layer][0]
        dst = names_by_layer[layer + 1][0]
        if (src, dst) not in graph.edges:
            graph.add_edge(src, dst, 64.0)
    return graph
