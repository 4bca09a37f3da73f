"""What one benchmark run hands back, and the statistics it uses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

#: (name, unit, better, bound): the end-to-end metrics every workload
#: reports, and the share of the parent's median by which each may
#: worsen before a change counts as a regression.  Time metrics get
#: the widest bound: on a shared 2-vCPU host they drift by 10-20%
#: between runs minutes apart as the host's load changes.
END_TO_END = [
    ("specs_per_s", "specs/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_spec", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]


#: a timed round in which the hypervisor took more than this share of
#: the CPUs (steal time in /proc/stat) counts as disturbed.
STEAL_LIMIT = 0.05
#: disturbed rounds are made up for by at most this many extra rounds.
EXTRA_ROUNDS = 2


def calm_rounds(run_one: Callable[[int], dict], wanted: int) -> tuple:
    """Run rounds until ``wanted`` of them were undisturbed by the host,
    or ``EXTRA_ROUNDS`` more than ``wanted`` ran.

    Returns (the ``wanted`` rounds with the least steal, every round).
    Steal is observed outside the program, so which rounds count never
    depends on what the program measured in them.
    """
    rounds: List[dict] = []
    while len(rounds) < wanted + EXTRA_ROUNDS:
        rounds.append(run_one(len(rounds)))
        calm = sum(1 for r in rounds if r["steal"] <= STEAL_LIMIT)
        if len(rounds) >= wanted and calm >= wanted:
            break
    used = sorted(rounds, key=lambda r: r["steal"])[:wanted]
    return used, rounds


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def mid(values: Sequence[float]) -> float:
    return median(values) if values else 0.0


def latency(rounds: Sequence[Sequence[float]], q: float) -> Tuple[float, int]:
    """The q-th percentile of each round's samples, median over the
    rounds (one disturbed round cannot move it), with the sample count."""
    return (mid([percentile(r, q) for r in rounds]),
            sum(len(r) for r in rounds))


@dataclass
class Outcome:
    """One workload run: counts, checks, and metrics."""

    attempted: int = 0
    failed: int = 0
    #: one line per failed check (printed, first few only)
    failures: List[str] = field(default_factory=list)
    #: name -> (value, samples) for the END_TO_END metrics
    end_to_end: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: name -> value for layers.PER_LAYER metrics
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: outside-in accounting lines for the human-readable report
    notes: List[str] = field(default_factory=list)

    def fail(self, lines: Sequence[str]) -> None:
        """Count one failed spec per line."""
        self.failures.extend(lines)
        self.failed += len(lines)
