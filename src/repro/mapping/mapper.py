"""Constructive mapping heuristics.

Four mappers of increasing sophistication — the gap between the naive
ones and the communication-aware ones is the quantitative content of
the paper's claim that automated mapping tools are needed (E15):

* :func:`random_map` — uniformly random placement (the floor);
* :func:`round_robin_map` — naive task striping;
* :func:`greedy_load_balance_map` — longest-processing-time-first onto
  the least-loaded PE, affinity-aware;
* :func:`communication_aware_map` — greedy placement weighing both
  load and the NoC distance to already-placed neighbours.
"""

from __future__ import annotations

from typing import Dict

from repro.mapping.evaluate import Mapping, PlatformModel, communication_cycles
from repro.mapping.taskgraph import TaskGraph
from repro.noc.routing import cached_routing
from repro.sim.rng import RandomStreams


def random_map(
    graph: TaskGraph, platform: PlatformModel, seed: int = 11
) -> Mapping:
    """Place every task on a uniformly random PE."""
    rng = RandomStreams(seed).get("random_map")
    return {
        name: rng.randrange(platform.num_pes) for name in graph.tasks
    }


def round_robin_map(graph: TaskGraph, platform: PlatformModel) -> Mapping:
    """Stripe tasks across PEs in topological order."""
    mapping: Mapping = {}
    for index, name in enumerate(graph.topological_order()):
        mapping[name] = index % platform.num_pes
    return mapping


def greedy_load_balance_map(
    graph: TaskGraph, platform: PlatformModel
) -> Mapping:
    """LPT: heaviest task first onto the PE where it finishes soonest.

    Affinity-aware: the load added is the task's cycles *on that PE's
    kind*, so DSP-friendly tasks gravitate to DSPs.
    """
    load = [0.0] * platform.num_pes
    mapping: Mapping = {}
    by_weight = sorted(
        graph.tasks.values(), key=lambda t: -t.compute_cycles
    )
    for task in by_weight:
        best_pe = min(
            range(platform.num_pes),
            key=lambda pe: load[pe] + task.cycles_on(platform.pe_kinds[pe]),
        )
        mapping[task.name] = best_pe
        load[best_pe] += task.cycles_on(platform.pe_kinds[best_pe])
    return mapping


def communication_aware_map(
    graph: TaskGraph,
    platform: PlatformModel,
    comm_weight: float = 1.0,
) -> Mapping:
    """HEFT-style earliest-finish-time placement.

    Tasks are visited in topological order; for each candidate PE the
    actual start time is computed (processor availability and arrival
    of every predecessor's data over the NoC), and the task goes to
    the PE where it *finishes* earliest.  This is the list-scheduling
    heuristic the evaluator itself uses, so the mapper optimizes the
    true objective rather than a load proxy.
    """
    if comm_weight < 0:
        raise ValueError(f"negative communication weight {comm_weight}")
    routing = cached_routing(platform.topology)
    pe_free = [0.0] * platform.num_pes
    finish: dict[str, float] = {}
    mapping: Mapping = {}
    for name in graph.topological_order():
        task = graph.tasks[name]
        preds = [
            (pred, graph.edges[(pred, name)])
            for pred in graph.predecessors(name)
        ]

        def finish_time(pe: int) -> float:
            ready = 0.0
            for pred, volume in preds:
                comm = comm_weight * communication_cycles(
                    platform, routing, mapping[pred], pe, volume
                )
                ready = max(ready, finish[pred] + comm)
            start = max(ready, pe_free[pe])
            return start + task.cycles_on(platform.pe_kinds[pe])

        best_pe = min(range(platform.num_pes), key=finish_time)
        finish[name] = finish_time(best_pe)
        pe_free[best_pe] = finish[name]
        mapping[name] = best_pe
    return mapping


#: Registry used by the DSE sweeps and benchmarks.
MAPPERS: Dict[str, object] = {
    "random": random_map,
    "round_robin": lambda g, p, seed=0: round_robin_map(g, p),
    "greedy_load": lambda g, p, seed=0: greedy_load_balance_map(g, p),
    "comm_aware": lambda g, p, seed=0: communication_aware_map(g, p),
}


def run_mapper(
    name: str,
    graph: TaskGraph,
    platform: PlatformModel,
    seed: int = 11,
) -> Mapping:
    """Run a registered mapper by name."""
    if name not in MAPPERS:
        raise KeyError(
            f"unknown mapper {name!r}; known: {', '.join(sorted(MAPPERS))}"
        )
    mapper = MAPPERS[name]
    if name == "random":
        return mapper(graph, platform, seed)
    return mapper(graph, platform)
