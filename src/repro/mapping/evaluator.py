"""Precomputed, incrementally-updatable mapping evaluation.

:func:`repro.mapping.evaluate.evaluate_mapping` is the reference cost
model: dict-keyed, rebuilt from scratch on every call.  That is the hot
path of the annealer (~2000 evaluations per run) and of every DSE
sweep, so this module precomputes everything that depends only on the
(graph, platform) pair once:

* integer task indices in topological order;
* per-task predecessor lists as ``(pred_index, volume, serialization)``
  triples;
* a PE×PE hop matrix (bus special case and ``max(1, hops)`` folded in)
  and the matching precomputed ``hops * router_delay`` term;
* a task×PE compute-cycles matrix (affinity resolved per PE kind).

One kernel, :meth:`MappingEvaluator._schedule`, list-schedules over
those flat arrays and — by performing the same floating-point
operations in the same order — yields **bit-identical**
:class:`MappingCost` values to the reference implementation.

:meth:`MappingEvaluator.incremental` adds exact delta evaluation for
move/swap neighbourhoods: list scheduling consumes tasks in a fixed
topological order, so a move of the task at position ``p`` can only
change scheduling state from ``p`` onwards.  The incremental state
checkpoints the scheduler state (per-PE free/busy times, running
communication totals, prefix finish maximum) before every position and
runs the same kernel over the suffix only, which halves the work of a
random move on average and avoids the ``dict(current)`` copy entirely.
Prefix sums are reused unchanged and suffix terms are accumulated in
the original order, so incremental costs are float-identical to full
evaluation (the equivalence tests in ``tests/mapping/test_evaluator.py``
assert exact equality, not approximation).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.mapping.evaluate import (
    Mapping,
    MappingCost,
    PlatformModel,
    _validate,
)
from repro.mapping.taskgraph import TaskGraph
from repro.noc.routing import RoutingTable, cached_routing
from repro.noc.topology import TopologyKind

#: A proposed placement change: (task name, new PE index).
Move = Tuple[str, int]


class MappingEvaluator:
    """Shared per-(graph, platform) evaluation state.

    Build one per (graph, platform) pair and reuse it across every
    mapping you evaluate — constructive mappers, annealing, sweeps.
    The routing table defaults to the shared :func:`cached_routing`
    memo, so repeated construction for the same topology does not
    re-run BFS either.
    """

    def __init__(
        self,
        graph: TaskGraph,
        platform: PlatformModel,
        routing: Optional[RoutingTable] = None,
    ) -> None:
        self.graph = graph
        self.platform = platform
        self.routing = routing if routing is not None else cached_routing(
            platform.topology
        )
        self.order: List[str] = graph.topological_order()
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.order)
        }
        self.num_tasks = len(self.order)
        self.num_pes = platform.num_pes

        # task×PE compute cycles with affinity resolved once.
        kinds = platform.pe_kinds
        self.cycles: List[List[float]] = []
        for name in self.order:
            task = graph.tasks[name]
            by_kind = {kind: task.cycles_on(kind) for kind in set(kinds)}
            self.cycles.append([by_kind[kind] for kind in kinds])

        # Predecessors as (pred_position, volume, serialization) in the
        # graph's insertion order — the order the reference accumulates
        # communication in, which exact equivalence depends on.
        inv_bw = platform.link_bytes_per_cycle
        self.preds: List[List[Tuple[int, float, float]]] = []
        for name in self.order:
            rows = []
            for pred in graph.predecessors(name):
                volume = graph.edges[(pred, name)]
                rows.append((self.index[pred], volume, volume / inv_bw))
            self.preds.append(rows)

        # PE×PE hop matrix and its precomputed router-delay product.
        topo = platform.topology
        is_bus = topo.kind is TopologyKind.BUS
        tr = topo.terminal_router
        dist = self.routing.distance
        self.hop: List[List[int]] = []
        self.hop_delay: List[List[float]] = []
        for src in range(self.num_pes):
            hop_row: List[int] = []
            delay_row: List[float] = []
            for dst in range(self.num_pes):
                if src == dst:
                    hops = 0
                elif is_bus:
                    hops = 1
                else:
                    hops = dist[tr[src]][tr[dst]]
                    if hops < 0:
                        raise ValueError(
                            f"routers {tr[src]},{tr[dst]} disconnected"
                        )
                    if hops < 1:
                        hops = 1
                hop_row.append(hops)
                delay_row.append(hops * platform.router_delay)
            self.hop.append(hop_row)
            self.hop_delay.append(delay_row)

    # -- dict-facing API ----------------------------------------------------

    def assignment(self, mapping: Mapping) -> List[int]:
        """Validate *mapping* and flatten it to a topo-ordered array."""
        _validate(self.graph, self.platform, mapping)
        return [mapping[name] for name in self.order]

    def to_mapping(self, assign: Sequence[int]) -> Mapping:
        """Inverse of :meth:`assignment`."""
        return {name: assign[i] for i, name in enumerate(self.order)}

    def evaluate(self, mapping: Mapping, mapper_name: str = "") -> MappingCost:
        """Full evaluation; bit-identical to :func:`evaluate_mapping`."""
        return self.evaluate_assignment(
            self.assignment(mapping), mapper_name=mapper_name
        )

    def evaluate_assignment(
        self, assign: Sequence[int], mapper_name: str = ""
    ) -> MappingCost:
        """Full list-scheduling pass over a flat assignment array."""
        zeros = [0.0] * self.num_pes
        return self._cost(*self._schedule(
            assign, 0, [0.0] * self.num_tasks, zeros, list(zeros),
            0.0, 0.0, 0.0,
        ), mapper_name=mapper_name)

    def incremental(self, mapping: Mapping) -> "IncrementalMapping":
        """An :class:`IncrementalMapping` positioned at *mapping*."""
        return IncrementalMapping(self, self.assignment(mapping))

    def evaluate_batch(
        self,
        assignments: Sequence[Sequence[int]],
        mapper_name: str = "",
    ) -> List[MappingCost]:
        """Score many flat assignments: one :meth:`evaluate_assignment`
        per candidate, after checking every candidate's length and PE
        range up front."""
        assignments = [list(a) for a in assignments]
        for assign in assignments:
            if len(assign) != self.num_tasks:
                raise ValueError(
                    f"assignment length {len(assign)} != {self.num_tasks} tasks"
                )
            for pe in assign:
                if not 0 <= pe < self.num_pes:
                    raise ValueError(
                        f"PE index {pe} out of range 0..{self.num_pes - 1}"
                    )
        return [
            self.evaluate_assignment(a, mapper_name=mapper_name)
            for a in assignments
        ]

    def _schedule(
        self,
        assign: Sequence[int],
        start: int,
        finish: List[float],
        pe_free: List[float],
        pe_busy: List[float],
        total_comm: float,
        byte_hops: float,
        makespan: float,
        checkpoints: Optional["IncrementalMapping"] = None,
    ) -> Tuple[float, float, List[float], float]:
        """List-schedule positions ``start..n`` in place.

        From the scheduler state before *start*, writes ``finish[i]``,
        updates *pe_free* / *pe_busy* and returns ``(makespan,
        total_comm, pe_busy, byte_hops)``, the argument order of
        :meth:`_cost`.  Given *checkpoints*, also stores the state
        after each position in that :class:`IncrementalMapping`.

        LOCKSTEP: the scheduling law exists twice, here and in
        ``evaluate.evaluate_mapping`` (the dict reference); mirror
        every cost-model change in both.  The kernel takes no callback
        (the hot loop pays for no call) and tests the checkpoint flag
        once per task.
        """
        hop = self.hop
        hop_delay = self.hop_delay
        preds = self.preds
        cycles = self.cycles
        keep = checkpoints is not None
        if keep:
            free_at = checkpoints._free
            busy_at = checkpoints._busy
            comm_at = checkpoints._comm
            bh_at = checkpoints._bh
            maxfin_at = checkpoints._maxfin
        for i in range(start, self.num_tasks):
            pe = assign[i]
            ready = 0.0
            for j, volume, ser in preds[i]:
                src = assign[j]
                if src == pe:
                    arrival = finish[j]
                else:
                    comm = hop_delay[src][pe] + ser
                    total_comm += comm
                    byte_hops += volume * hop[src][pe]
                    arrival = finish[j] + comm
                if arrival > ready:
                    ready = arrival
            free = pe_free[pe]
            begin = ready if ready > free else free
            duration = cycles[i][pe]
            f = begin + duration
            finish[i] = f
            pe_free[pe] = f
            pe_busy[pe] += duration
            if f > makespan:
                makespan = f
            if keep:
                free_at[i + 1] = list(pe_free)
                busy_at[i + 1] = list(pe_busy)
                comm_at[i + 1] = total_comm
                bh_at[i + 1] = byte_hops
                maxfin_at[i + 1] = makespan
        return makespan, total_comm, pe_busy, byte_hops

    def _cost(
        self,
        makespan: float,
        total_comm: float,
        pe_busy: Sequence[float],
        byte_hops: float,
        mapper_name: str = "",
    ) -> MappingCost:
        mean_busy = sum(pe_busy) / len(pe_busy) if pe_busy else 0.0
        imbalance = (
            max(pe_busy) / mean_busy if mean_busy > 0 else float("inf")
        )
        return MappingCost(
            makespan_cycles=makespan,
            total_comm_cycles=total_comm,
            load_imbalance=imbalance,
            noc_byte_hops=byte_hops,
            mapper=mapper_name,
        )


class IncrementalMapping:
    """Mutable assignment with checkpointed suffix re-evaluation.

    The propose/commit/reject protocol the annealer uses::

        state = evaluator.incremental(initial)
        cost = state.cost()                    # full MappingCost
        cand = state.propose([(task, pe)])     # exact candidate cost
        state.commit()                         # accept the proposal
        state.reject()                         # ...or drop it

    ``propose`` never mutates committed state; ``commit`` re-schedules
    the affected suffix once more to refresh the checkpoints.
    """

    def __init__(self, evaluator: MappingEvaluator, assign: List[int]) -> None:
        self.ev = evaluator
        self.assign = assign
        n = evaluator.num_tasks
        p = evaluator.num_pes
        # _free[i]/_busy[i]: per-PE scheduler state *before* topo
        # position i; index n holds the final state.  _comm/_bh/_maxfin
        # are the running totals/prefix-finish-max before position i.
        self._free: List[List[float]] = [[0.0] * p for _ in range(n + 1)]
        self._busy: List[List[float]] = [[0.0] * p for _ in range(n + 1)]
        self._comm: List[float] = [0.0] * (n + 1)
        self._bh: List[float] = [0.0] * (n + 1)
        self._maxfin: List[float] = [0.0] * (n + 1)
        self._finish: List[float] = [0.0] * n
        self._pending: Optional[List[Tuple[int, int, int]]] = None
        self._recompute(0)

    # -- queries ------------------------------------------------------------

    def cost(self, mapper_name: str = "") -> MappingCost:
        """The committed assignment's full cost."""
        n = self.ev.num_tasks
        return self.ev._cost(
            self._maxfin[n],
            self._comm[n],
            self._busy[n],
            self._bh[n],
            mapper_name,
        )

    def mapping(self) -> Mapping:
        """The committed assignment as a task-name dict."""
        return self.ev.to_mapping(self.assign)

    def snapshot(self) -> List[int]:
        """Copy of the committed flat assignment."""
        return list(self.assign)

    def pe_of(self, name: str) -> int:
        return self.assign[self.ev.index[name]]

    # -- propose / commit / reject ------------------------------------------

    def propose(self, moves: Sequence[Move]) -> MappingCost:
        """Exact cost of applying *moves*, without committing them.

        Only the suffix from the earliest moved task's topological
        position is re-scheduled; prefix totals come from checkpoints.
        """
        if self._pending is not None:
            raise RuntimeError("unresolved proposal: commit() or reject() first")
        ev = self.ev
        resolved = []
        for name, new_pe in moves:
            pos = ev.index[name]
            resolved.append((pos, self.assign[pos], new_pe))
        if not resolved:
            return self.cost()
        start = min(pos for pos, _old, _new in resolved)
        assign = self.assign
        for pos, _old, new_pe in resolved:
            assign[pos] = new_pe
        try:
            cost = self._evaluate_suffix(start)
        finally:
            for pos, old_pe, _new in resolved:
                assign[pos] = old_pe
        self._pending = resolved
        return cost

    def commit(self) -> None:
        """Apply the last proposal and refresh the checkpoints."""
        if self._pending is None:
            raise RuntimeError("no proposal to commit")
        resolved, self._pending = self._pending, None
        for pos, _old, new_pe in resolved:
            self.assign[pos] = new_pe
        self._recompute(min(pos for pos, _old, _new in resolved))

    def reject(self) -> None:
        """Drop the last proposal (committed state was never touched)."""
        self._pending = None

    # -- internals ----------------------------------------------------------

    def _evaluate_suffix(self, start: int) -> MappingCost:
        """Schedule positions ``start..n`` from the start checkpoint.

        The kernel runs on a copy of the committed finish times: a
        predecessor at or after *start* reads the value this pass
        wrote, one before *start* the committed value, and committed
        state is never touched.
        """
        return self.ev._cost(*self.ev._schedule(
            self.assign, start, list(self._finish),
            list(self._free[start]), list(self._busy[start]),
            self._comm[start], self._bh[start], self._maxfin[start],
        ))

    def _recompute(self, start: int) -> None:
        """Re-schedule from *start* and refresh every checkpoint."""
        self.ev._schedule(
            self.assign, start, self._finish,
            list(self._free[start]), list(self._busy[start]),
            self._comm[start], self._bh[start], self._maxfin[start],
            checkpoints=self,
        )
