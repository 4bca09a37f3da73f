"""Core of the discrete-event simulation kernel.

The :class:`Simulator` owns a binary-heap event queue keyed on
``(time, priority, sequence)``.  Model behaviour is expressed as generator
functions ("processes") that yield :class:`Timeout` or :class:`Event`
instances; the kernel resumes a process when the yielded condition fires.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot condition that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it, scheduling every waiting callback at the current
    simulation time.  Triggering twice is an error — events are one-shot
    by design, which keeps causality easy to reason about.

    Parameters
    ----------
    sim:
        The owning simulator.  Events can only be triggered through the
        simulator they belong to.
    name:
        Optional debug label.
    """

    __slots__ = (
        "sim", "name", "callbacks", "_value", "_ok", "_triggered", "_fired"
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        #: callbacks detached at trigger time, dispatched by the kernel.
        self._fired: list[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` / :meth:`fail`."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters."""
        self._trigger(value, ok=True)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive *exception*."""
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        self._trigger(exception, ok=False)
        return self

    def _trigger(self, value: Any, ok: bool) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self._ok = ok
        # Detach the waiter list now (callbacks added after triggering
        # never fire) and queue the event itself at the current time:
        # the kernel calls its detached waiters, so a trigger allocates
        # no closure.
        self._fired = self.callbacks
        self.callbacks = []
        sim = self.sim
        heapq.heappush(sim._queue, (sim._now, 0, next(sim._seq), self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout:
    """A relative delay command yielded by processes.

    ``yield Timeout(5)`` suspends the yielding process for five time
    units.  A negative delay is rejected: simulated time is monotonic.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative Timeout delay {delay!r}")
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class Simulator:
    """Event-driven simulator with a monotonic virtual clock.

    The public surface is deliberately small:

    * :meth:`spawn` turns a generator into a running process.
    * :meth:`run` executes events until the horizon or queue exhaustion.
    * :meth:`event` creates a fresh :class:`Event` bound to this kernel.
    * :meth:`schedule` runs an arbitrary callback at a future time.

    Determinism: two events at the same timestamp fire in the order they
    were scheduled (FIFO tiebreak via a sequence counter), so a seeded
    simulation replays identically.
    """

    def __init__(self) -> None:
        self._now = 0.0
        # Entries are (time, priority, seq, item); item is a zero-arg
        # callback or a triggered Event (dispatched to its waiters).
        self._queue: list[tuple[float, int, int, Any]] = []
        self._seq = itertools.count()
        self._processes: list[Any] = []
        self._event_count = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of scheduled callbacks executed so far.

        :meth:`run` adds its count when it returns or raises, so a
        callback reading this mid-run sees the count at the run's start.
        """
        return self._event_count

    def event(self, name: str = "") -> Event:
        """Create a new pending :class:`Event` owned by this simulator."""
        return Event(self, name)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> None:
        """Run *callback* after *delay* time units.

        Lower *priority* values fire first among same-time events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._seq), callback)
        )

    def spawn(
        self,
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> "Process":
        """Start a new process from *generator* and return its handle."""
        from repro.sim.process import Process

        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or time reaches *until*.

        Returns the simulation time at which execution stopped.  When an
        *until* horizon is given the clock is advanced exactly to it, so
        back-to-back ``run(until=...)`` calls compose.
        """
        queue = self._queue
        pop = heapq.heappop
        # Counted in a local and added back on every exit, a raising
        # callback included, so the count matches one per entry popped.
        executed = 0
        try:
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    self._now = float(until)
                    return self._now
                if time < self._now:  # pragma: no cover - defensive
                    raise SimulationError("event scheduled in the past")
                self._now = time
                # Batch every same-time wakeup: one horizon/clock update
                # per timestamp instead of one per entry.  Entries pushed
                # at `time` from within the batch join it (heap order
                # preserves the FIFO sequence tiebreak).
                while queue and queue[0][0] == time:
                    item = pop(queue)[3]
                    executed += 1
                    # Exact type: nothing subclasses Event, and a
                    # callback is never an Event.
                    if type(item) is Event:
                        for cb in item._fired:
                            cb(item)
                    else:
                        item()
        finally:
            self._event_count += executed
        if until is not None and until > self._now:
            self._now = float(until)
        return self._now

    def run_steps(self, max_events: int, until: Optional[float] = None) -> int:
        """Execute at most *max_events* callbacks; returns how many ran.

        With an *until* horizon, events after it are left queued and the
        clock advances exactly to the horizon (matching :meth:`run`), so
        stepped and free-running execution order identically.
        """
        queue = self._queue
        executed = 0
        while queue and executed < max_events:
            time = queue[0][0]
            if until is not None and time > until:
                break
            if time < self._now:  # pragma: no cover - defensive
                raise SimulationError("event scheduled in the past")
            item = heapq.heappop(queue)[3]
            self._now = time
            self._event_count += 1
            if type(item) is Event:
                for cb in item._fired:
                    cb(item)
            else:
                item()
            executed += 1
        # Advance to the horizon only when stepping stopped because the
        # horizon (or queue exhaustion) was reached, never because the
        # step budget ran out with eligible events still queued.
        if (
            until is not None
            and until > self._now
            and (not queue or queue[0][0] > until)
        ):
            self._now = float(until)
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now} queued={len(self._queue)}>"
