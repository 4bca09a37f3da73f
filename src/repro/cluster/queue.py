"""Spec-granular work-stealing queue: per-worker deques + a backlog.

The scheduling unit is one spec, never an ``i/N`` shard: a fixed shard
pins its tail to whichever worker drew it, so one slow worker strands
the whole sweep.  Here every worker owns a deque; new work lands on
the shortest deque (or the backlog when no workers are registered),
owners pop from the *front* of their own deque, and an idle worker
steals from the *back* of the longest other deque — the classic
Chase–Lev shape, which keeps an owner's cache-warm front intact while
thieves skim the cold tail.

The queue is a plain data structure with no locking or I/O of its own;
the coordinator drives it from its (single-threaded) event loop, and
the tests drive it directly.  All tie-breaks are by registration
order, so scheduling decisions are deterministic for a given sequence
of operations.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional


class WorkStealingQueue:
    """Per-worker deques with steal-from-the-back and a global backlog."""

    def __init__(self) -> None:
        self._deques: Dict[str, Deque[Any]] = {}
        self._backlog: Deque[Any] = deque()
        #: lifetime steal count, and whether the most recent pop() was
        #: a steal — the coordinator reads these for telemetry.
        self.steals = 0
        self.stole_last = False

    # -- membership ---------------------------------------------------------

    def add_worker(self, worker_id: str) -> None:
        self._deques.setdefault(worker_id, deque())

    def remove_worker(self, worker_id: str) -> List[Any]:
        """Drop a worker's deque; its unstarted items go to the backlog."""
        leftover = list(self._deques.pop(worker_id, ()))
        self._backlog.extend(leftover)
        return leftover

    def workers(self) -> List[str]:
        return list(self._deques)

    # -- producing ----------------------------------------------------------

    def push(self, item: Any, worker_id: Optional[str] = None) -> str:
        """Enqueue one item; returns where it landed.

        With an explicit (registered) ``worker_id`` the item is
        appended to that worker's deque; otherwise it goes to the
        shortest deque — first-registered wins ties — or to the
        backlog when no workers are registered.
        """
        if worker_id is not None and worker_id in self._deques:
            self._deques[worker_id].append(item)
            return worker_id
        if self._deques:
            target = min(self._deques, key=lambda w: len(self._deques[w]))
            self._deques[target].append(item)
            return target
        self._backlog.append(item)
        return ""

    def push_front(self, item: Any) -> None:
        """Requeue an interrupted item ahead of fresh work (backlog head)."""
        self._backlog.appendleft(item)

    # -- consuming ----------------------------------------------------------

    def pop(self, worker_id: str) -> Optional[Any]:
        """Next item for this worker: own front, backlog, then a steal.

        The steal victim is the *longest* other deque (ties to the
        first registered) and the item comes off its *back*, so the
        victim's own pops are undisturbed.  Returns ``None`` when the
        whole queue is drained.
        """
        self.stole_last = False
        own = self._deques.get(worker_id)
        if own:
            return own.popleft()
        if self._backlog:
            return self._backlog.popleft()
        victim: Optional[str] = None
        for other, items in self._deques.items():
            if other == worker_id or not items:
                continue
            if victim is None or len(items) > len(self._deques[victim]):
                victim = other
        if victim is not None:
            self.steals += 1
            self.stole_last = True
            return self._deques[victim].pop()
        return None

    def purge(self, dead: Callable[[Any], bool]) -> None:
        """Drop every queued item for which ``dead(item)`` holds.

        Scans every deque, so it is for one-off events (a cancelled
        job), not the grant path.
        """
        for items in (self._backlog, *self._deques.values()):
            keep = [item for item in items if not dead(item)]
            items.clear()
            items.extend(keep)

    # -- introspection ------------------------------------------------------

    def pending(self) -> int:
        return len(self._backlog) + sum(
            len(d) for d in self._deques.values()
        )

    def __len__(self) -> int:
        return self.pending()

    def depths(self) -> Dict[str, int]:
        """Queue depth per worker (plus the ``""`` backlog) for status."""
        depths = {w: len(d) for w, d in self._deques.items()}
        depths[""] = len(self._backlog)
        return depths
