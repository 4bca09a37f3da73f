"""Deterministic fault injection for cluster components.

``REPRO_CHAOS`` (or ``repro worker --chaos SPEC``) arms a
:class:`ChaosMonkey` inside a worker process.  A spec is a
comma-separated list of clauses::

    seed=42,kill-worker@3,drop-conn@5,skip-heartbeat@2,heartbeat-delay=0.05

* ``seed=N``            — seeds the RNG every probabilistic clause
  draws from, so a chaos run is exactly reproducible;
* ``kill-worker@N``     — die abruptly (no farewell frame, leases
  stranded) at the worker's Nth executed lease — the in-schedule
  stand-in for SIGKILL;
* ``drop-conn@N``       — sever the coordinator connection after the
  Nth lease result is sent; the worker then reconnects through its
  ordinary jittered-backoff budget;
* ``skip-heartbeat@N``  — suppress the Nth heartbeat pulse (repeat
  the clause to silence a worker long enough to expire its leases);
* ``heartbeat-delay=S`` — add a seeded uniform delay in [0, S) before
  every heartbeat, smearing the pulse train.

Each ``kind@N`` clause fires exactly once, on the Nth time that
trigger point is reached (1-based).  Multiple clauses of the same kind
compose (``kill-worker@3`` on one worker, ``kill-worker@5`` on
another, via per-process env vars).

The monkey is a plain counter machine with no threads or I/O of its
own — the hook points in :mod:`repro.cluster.worker` call
:meth:`fire` and act on the answer — so schedules are unit-testable
without sockets.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from typing import Dict, List, Optional

__all__ = ["ChaosError", "ChaosMonkey", "CHAOS_ENV"]

#: env var carrying the chaos spec (read by ``repro worker``).
CHAOS_ENV = "REPRO_CHAOS"

#: trigger kinds a spec may schedule.
KINDS = frozenset({"kill-worker", "drop-conn", "skip-heartbeat"})


class ChaosError(ValueError):
    """An unparseable chaos spec (bad clause, unknown kind)."""


class ChaosMonkey:
    """Seeded, scheduled fault decisions behind :meth:`fire`."""

    def __init__(
        self,
        seed: int = 0,
        schedule: Optional[Dict[str, List[int]]] = None,
        heartbeat_delay_s: float = 0.0,
    ):
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        self.heartbeat_delay_s = float(heartbeat_delay_s)
        #: kind -> sorted 1-based trigger counts still to fire.
        self._schedule: Dict[str, List[int]] = {
            kind: sorted(at) for kind, at in (schedule or {}).items()
        }
        self._counts: Counter = Counter()
        #: every fault actually fired, as (kind, trigger_count) —
        #: the audit trail chaos tests assert on.
        self.fired: List[tuple] = []

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "ChaosMonkey":
        """Build a monkey from a ``REPRO_CHAOS`` clause string."""
        seed = 0
        delay = 0.0
        schedule: Dict[str, List[int]] = {}
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            if "@" in clause:
                kind, _at, count = clause.partition("@")
                kind = kind.strip()
                if kind not in KINDS:
                    raise ChaosError(
                        f"unknown chaos trigger {kind!r} (expected one "
                        f"of {sorted(KINDS)})"
                    )
                try:
                    nth = int(count)
                    if nth < 1:
                        raise ValueError
                except ValueError:
                    raise ChaosError(
                        f"chaos clause {clause!r} needs a positive "
                        "1-based trigger count after '@'"
                    ) from None
                schedule.setdefault(kind, []).append(nth)
            elif "=" in clause:
                key, _eq, value = clause.partition("=")
                key = key.strip()
                try:
                    if key == "seed":
                        seed = int(value)
                    elif key == "heartbeat-delay":
                        delay = float(value)
                        if delay < 0:
                            raise ValueError
                    else:
                        raise ChaosError(
                            f"unknown chaos setting {key!r} (expected "
                            "seed= or heartbeat-delay=)"
                        )
                except ValueError:
                    raise ChaosError(
                        f"chaos clause {clause!r} has a malformed value"
                    ) from None
            else:
                raise ChaosError(
                    f"chaos clause {clause!r} is neither kind@N nor "
                    "key=value"
                )
        return cls(seed=seed, schedule=schedule, heartbeat_delay_s=delay)

    @classmethod
    def from_env(cls, environ=None) -> Optional["ChaosMonkey"]:
        """The monkey ``REPRO_CHAOS`` describes, or None when unset."""
        spec = (environ if environ is not None else os.environ).get(
            CHAOS_ENV
        )
        if not spec:
            return None
        return cls.parse(spec)

    # -- decisions -----------------------------------------------------------

    def fire(self, kind: str) -> bool:
        """Count one pass of a trigger point; True when a fault fires."""
        self._counts[kind] += 1
        pending = self._schedule.get(kind)
        if pending and pending[0] == self._counts[kind]:
            pending.pop(0)
            self.fired.append((kind, self._counts[kind]))
            return True
        return False

    def heartbeat_delay(self) -> float:
        """Seeded uniform delay in [0, heartbeat_delay_s) per pulse."""
        if self.heartbeat_delay_s <= 0:
            return 0.0
        return self.rng.random() * self.heartbeat_delay_s

    def pending(self) -> Dict[str, List[int]]:
        """Trigger counts still scheduled, per kind (for diagnostics)."""
        return {k: list(v) for k, v in self._schedule.items() if v}

    def describe(self) -> str:
        clauses = [f"seed={self.seed}"]
        for kind, counts in sorted(self._schedule.items()):
            clauses.extend(f"{kind}@{n}" for n in counts)
        if self.heartbeat_delay_s:
            clauses.append(f"heartbeat-delay={self.heartbeat_delay_s:g}")
        return ",".join(clauses)
