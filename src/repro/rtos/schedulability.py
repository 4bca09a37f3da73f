"""Rate-monotonic schedulability analysis.

Exact response-time analysis (RTA) for fixed-priority preemptive
scheduling, with each job charged a context-switch cost.  The platform
level of the paper needs it to size processor allocations for
real-time application stacks; ablation A7 sweeps the switch cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class PeriodicTaskSpec:
    """One periodic hard-real-time task."""

    name: str
    period: float
    wcet: float          # worst-case execution time
    deadline: Optional[float] = None   # defaults to the period

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"{self.name}: period must be positive")
        if self.wcet <= 0:
            raise ValueError(f"{self.name}: WCET must be positive")
        if self.wcet > self.period:
            raise ValueError(f"{self.name}: WCET exceeds period")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"{self.name}: deadline must be positive")

    @property
    def effective_deadline(self) -> float:
        return self.deadline if self.deadline is not None else self.period


def response_time_analysis(
    tasks: List[PeriodicTaskSpec],
    context_switch: float = 0.0,
) -> Dict[str, float]:
    """Exact RTA for rate-monotonic priorities (shorter period = higher).

    Iterates ``R = C + sum_{hp} ceil(R / T_hp) * C_hp`` to fixpoint.
    Each job charges two context switches (in and out), making the cost
    of a software kernel vs a hardware scheduler visible in the response
    times.  Returns per-task worst-case response time; ``inf`` when the
    iteration diverges past the deadline.
    """
    if context_switch < 0:
        raise ValueError(f"negative context switch cost {context_switch}")
    ordered = sorted(tasks, key=lambda t: t.period)
    results: Dict[str, float] = {}
    for index, task in enumerate(ordered):
        cost = task.wcet + 2 * context_switch
        higher = ordered[:index]
        response = cost
        for _ in range(1000):
            interference = sum(
                math.ceil(response / hp.period) * (hp.wcet + 2 * context_switch)
                for hp in higher
            )
            new_response = cost + interference
            if new_response == response:
                break
            response = new_response
            if response > task.effective_deadline:
                response = math.inf
                break
        results[task.name] = response
    return results


def schedulable(
    tasks: List[PeriodicTaskSpec],
    context_switch: float = 0.0,
) -> bool:
    """Exact RM schedulability via RTA."""
    responses = response_time_analysis(tasks, context_switch)
    by_name = {t.name: t for t in tasks}
    return all(
        responses[name] <= by_name[name].effective_deadline
        for name in responses
    )


def max_context_switch_cost(
    tasks: List[PeriodicTaskSpec],
    upper: float = 10_000.0,
) -> float:
    """Largest context-switch cost at which the set stays schedulable.

    Quantifies the paper's hardware-OS-services point: a set that is
    schedulable with a 1-cycle hardware scheduler can be infeasible
    under a software kernel's switch cost.
    """
    if schedulable(tasks, upper):
        return upper
    lo, hi = 0.0, upper
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if schedulable(tasks, mid):
            lo = mid
        else:
            hi = mid
    return lo
