"""Design-space exploration.

Sweeps (platform configuration x mapper) over a task graph and extracts
the Pareto-efficient points — the "rapid exploration and optimization"
loop of Section 7.2.  Platform configurations vary PE count, the PE
kind mix, and the NoC topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.engine.registry import scenario
from repro.mapping.anneal import anneal_map
from repro.mapping.evaluate import MappingCost, PlatformModel
from repro.mapping.evaluator import MappingEvaluator
from repro.mapping.mapper import MAPPERS, run_mapper
from repro.mapping.taskgraph import TaskGraph
from repro.noc.topology import TopologyKind, make_topology
from repro.platform.spec import PE_BASE_TRANSISTORS, PE_TRANSISTORS_PER_THREAD


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated (platform, mapper) combination."""

    num_pes: int
    topology: str
    pe_mix: str
    mapper: str
    cost: MappingCost
    area_proxy: float   # transistor-count proxy for the PE array + NoC

    def objectives(self) -> tuple[float, float]:
        """(makespan, area) — the two axes Pareto extraction uses."""
        return self.cost.makespan_cycles, self.area_proxy


def make_platform_model(
    num_pes: int,
    topology: TopologyKind | str = TopologyKind.MESH,
    dsp_fraction: float = 0.0,
    asip_fraction: float = 0.0,
) -> PlatformModel:
    """A PlatformModel with a given heterogeneous PE mix."""
    if num_pes < 1:
        raise ValueError(f"need >=1 PE, got {num_pes}")
    if dsp_fraction + asip_fraction > 1.0 + 1e-9:
        raise ValueError("PE-mix fractions exceed 1.0")
    if isinstance(topology, str):
        topology = TopologyKind(topology)
    num_dsp = int(round(num_pes * dsp_fraction))
    num_asip = int(round(num_pes * asip_fraction))
    kinds = (
        ["dsp"] * num_dsp
        + ["asip"] * num_asip
        + ["gp_risc"] * (num_pes - num_dsp - num_asip)
    )
    # Some topologies need a minimum size (ring/torus); extra terminals
    # beyond num_pes are simply left unused.
    return PlatformModel(
        pe_kinds=kinds,
        topology=make_topology(topology, max(3, num_pes)),
    )


def area_proxy(num_pes: int, topology_cost: float) -> float:
    """Transistor-count proxy: PE array + NoC wiring cost."""
    pe_tx = num_pes * (PE_BASE_TRANSISTORS + 4 * PE_TRANSISTORS_PER_THREAD)
    return pe_tx + 2000.0 * topology_cost


def explore(
    graph: TaskGraph,
    pe_counts: Sequence[int] = (4, 8, 16),
    topologies: Sequence[TopologyKind] = (
        TopologyKind.MESH,
        TopologyKind.FAT_TREE,
        TopologyKind.RING,
    ),
    mappers: Optional[Iterable[str]] = None,
    include_annealing: bool = False,
    dsp_fraction: float = 0.25,
    random_candidates: int = 0,
    candidate_seed: int = 17,
) -> List[DesignPoint]:
    """Full-factorial sweep; returns every evaluated design point.

    ``random_candidates > 0`` additionally scores that many random
    placements per platform through
    :meth:`~repro.mapping.evaluator.MappingEvaluator.evaluate_batch`
    and keeps the best as a ``random_best`` design point — a cheap
    sampled baseline between the constructive mappers and full
    annealing.
    """
    mapper_names = list(mappers) if mappers is not None else sorted(MAPPERS)
    points: List[DesignPoint] = []
    for num_pes in pe_counts:
        for topology in topologies:
            platform = make_platform_model(
                num_pes, topology, dsp_fraction=dsp_fraction
            )
            area = area_proxy(num_pes, platform.topology.wiring_cost())
            # One evaluator per (graph, platform): routing, topological
            # order and the hop matrix are built once per candidate
            # platform instead of once per mapper evaluation.
            evaluator = MappingEvaluator(graph, platform)
            for mapper_name in mapper_names:
                mapping = run_mapper(mapper_name, graph, platform)
                cost = evaluator.evaluate(mapping, mapper_name=mapper_name)
                points.append(
                    DesignPoint(
                        num_pes=num_pes,
                        topology=topology.value,
                        pe_mix=f"dsp{dsp_fraction:.0%}",
                        mapper=mapper_name,
                        cost=cost,
                        area_proxy=area,
                    )
                )
            if random_candidates > 0:
                from repro.sim.rng import RandomStreams

                rng = RandomStreams(candidate_seed).get(
                    f"dse.batch.{num_pes}.{topology.value}"
                )
                batch = [
                    [rng.randrange(num_pes) for _ in range(evaluator.num_tasks)]
                    for _ in range(random_candidates)
                ]
                costs = evaluator.evaluate_batch(
                    batch, mapper_name="random_best"
                )
                best = min(
                    costs, key=lambda c: c.makespan_cycles
                )
                points.append(
                    DesignPoint(
                        num_pes=num_pes,
                        topology=topology.value,
                        pe_mix=f"dsp{dsp_fraction:.0%}",
                        mapper="random_best",
                        cost=best,
                        area_proxy=area,
                    )
                )
            if include_annealing:
                mapping = anneal_map(
                    graph, platform, iterations=500, evaluator=evaluator
                )
                cost = evaluator.evaluate(mapping, mapper_name="anneal")
                points.append(
                    DesignPoint(
                        num_pes=num_pes,
                        topology=topology.value,
                        pe_mix=f"dsp{dsp_fraction:.0%}",
                        mapper="anneal",
                        cost=cost,
                        area_proxy=area,
                    )
                )
    return points


@scenario(
    "DSE",
    tags=("mapping", "dse", "sweep"),
    params={
        "tasks": 40,
        "layers": 5,
        "seed": 7,
        "pe_counts": (4, 8, 16),
        "topologies": ("mesh", "fat_tree", "ring"),
        "dsp_fraction": 0.25,
        "include_annealing": False,
    },
)
def dse_sweep(
    tasks: int = 40,
    layers: int = 5,
    seed: int = 7,
    pe_counts: Sequence[int] = (4, 8, 16),
    topologies: Sequence[str] = ("mesh", "fat_tree", "ring"),
    dsp_fraction: float = 0.25,
    include_annealing: bool = False,
    random_candidates: int = 0,
) -> dict:
    """The Section-7.2 exploration loop as one engine scenario.

    ``spec.with_params(random_candidates=N)`` adds the batched random
    sampling baseline (scored via ``evaluate_batch``).
    """
    from repro.mapping.taskgraph import layered_random_graph

    graph = layered_random_graph(tasks, layers=layers, seed=seed)
    points = explore(
        graph,
        pe_counts=tuple(pe_counts),
        topologies=tuple(TopologyKind(t) for t in topologies),
        include_annealing=include_annealing,
        dsp_fraction=dsp_fraction,
        random_candidates=random_candidates,
    )
    front = pareto_points(points)
    front_keys = {
        (p.num_pes, p.topology, p.mapper) for p in front
    }
    rows = [
        {
            "num_pes": p.num_pes,
            "topology": p.topology,
            "mapper": p.mapper,
            "makespan": round(p.cost.makespan_cycles, 1),
            "area_proxy": round(p.area_proxy),
            "pareto": (p.num_pes, p.topology, p.mapper) in front_keys,
        }
        for p in points
    ]
    return {
        "claim": (
            "DSOC mapping enables rapid exploration and optimization "
            "of the platform configuration space"
        ),
        "rows": rows,
        "verdict": {
            "points_evaluated": len(points),
            "pareto_front_size": len(front),
            "front_nonempty": 0 < len(front) < len(points),
            "front_spans_pe_counts": len({p.num_pes for p in front}) > 1,
        },
    }


def pareto_points(points: Iterable[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated points on (makespan, area) — both minimized."""
    points = list(points)
    front: List[DesignPoint] = []
    for point in points:
        makespan, area = point.objectives()
        dominated = False
        for other in points:
            if other is point:
                continue
            o_makespan, o_area = other.objectives()
            if (
                o_makespan <= makespan
                and o_area <= area
                and (o_makespan < makespan or o_area < area)
            ):
                dominated = True
                break
        if not dominated:
            front.append(point)
    front.sort(key=lambda p: p.objectives())
    return front
