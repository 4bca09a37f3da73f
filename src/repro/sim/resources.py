"""Shared resources for simulation processes.

:class:`Resource` models a counted resource (e.g. a bus, a memory port, a
processor issue slot) with FIFO queueing.  :class:`Store` is a FIFO of
items with blocking get/put, used for message queues and packet buffers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Event, SimulationError, Simulator


class Resource:
    """A resource with integer capacity and FIFO request queue.

    Usage inside a process::

        grant = resource.request()
        yield grant            # waits until a slot is free
        ...                    # critical section
        resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    def request(self) -> Event:
        """Return an event that succeeds when a slot is granted."""
        event = self.sim.event(f"{self.name}.request")
        if self._in_use < self.capacity:
            self._grant(event)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free one slot, granting the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())

    def _grant(self, event: Event) -> None:
        self._in_use += 1
        event.succeed(self)


class Store:
    """Unbounded-or-bounded FIFO store with blocking get/put.

    ``yield store.get()`` suspends until an item is available and resumes
    with the item as the yielded value.  ``yield store.put(item)``
    suspends while the store is at capacity (bounded stores only).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Return an event that succeeds once *item* is stored."""
        event = self.sim.event(f"{self.name}.put")
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        event = self.sim.event(f"{self.name}.get")
        if self._items:
            item = self._items.popleft()
            event.succeed(item)
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            event, item = self._putters.popleft()
            self._items.append(item)
            event.succeed(None)
