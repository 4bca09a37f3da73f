"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator and steps it each time a
yielded condition (a :class:`~repro.sim.core.Timeout`, an
:class:`~repro.sim.core.Event`, or another :class:`Process`) fires.  A
process is itself an awaitable condition: other processes can ``yield``
it to join on its completion and receive its return value.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional

from repro.sim.core import Event, SimulationError, Simulator, Timeout


class ProcessKilled(Exception):
    """Injected into a generator when its process is killed."""


class Process:
    """A running simulation process.

    Create via :meth:`repro.sim.core.Simulator.spawn`.  The wrapped
    generator may yield:

    * ``Timeout(d)``   — sleep for ``d`` time units;
    * ``Event``        — wait until the event triggers (receives its value,
      or raises its exception if the event failed);
    * ``Process``      — join on another process (receives its return value);
    * ``None``         — yield the processor for zero time (resumes at the
      same timestamp, after already-queued events).
    """

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._done = sim.event(f"{self.name}.done")
        self._alive = True
        self._result: Any = None
        # Reusable resume callbacks: a process waits on exactly one
        # condition at a time, so one value-less step callback and one
        # bound event-resume callback cover the hot paths without a
        # fresh closure per yield.
        self._step_none: Callable[[], None] = partial(self._step, None)
        self._resume_cb: Callable[[Event], None] = self._resume
        # Kick off at the current time so spawn() is side-effect free until
        # the event loop runs.
        sim.schedule(0.0, self._step_none)

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator; only valid once finished."""
        if self._alive:
            raise SimulationError(f"process {self.name!r} still running")
        return self._result

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled` into it."""
        if not self._alive:
            return
        try:
            self.generator.throw(ProcessKilled())
        except (ProcessKilled, StopIteration):
            pass
        self._finish(None)

    # -- internal machinery -------------------------------------------------

    def _step(self, send_value: Any, throw: Optional[BaseException] = None) -> None:
        if not self._alive:
            return
        try:
            if throw is not None:
                command = self.generator.throw(throw)
            else:
                command = self.generator.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._wait_on(command)

    def _wait_on(self, command: Any) -> None:
        # Timeout first: it is by far the most common yield in the
        # simulated workloads, and a value-less Timeout reuses the
        # process's one step callback instead of allocating a closure.
        sim = self.sim
        if isinstance(command, Timeout):
            if command.value is None:
                sim.schedule(command.delay, self._step_none)
            else:
                sim.schedule(command.delay, lambda: self._step(command.value))
        elif isinstance(command, Event):
            self._wait_event(command)
        elif isinstance(command, Process):
            self._wait_event(command._done)
        elif command is None:
            sim.schedule(0.0, self._step_none)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command "
                f"{command!r}; expected Timeout, Event, Process or None"
            )

    def _resume(self, ev: Event) -> None:
        if ev.ok:
            self._step(ev.value)
        else:
            self._step(None, throw=ev.value)

    def _wait_event(self, event: Event) -> None:
        if event.triggered:
            # Already fired: resume on the next scheduling slot to preserve
            # FIFO ordering with events queued before us.
            self.sim.schedule(0.0, lambda: self._resume(event))
        else:
            event.callbacks.append(self._resume_cb)

    def _finish(self, result: Any) -> None:
        self._alive = False
        self._result = result
        if not self._done.triggered:
            self._done.succeed(result)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"


def every(
    sim: Simulator,
    period: float,
    action: Callable[[], None],
    name: str = "ticker",
) -> Process:
    """Spawn a process that calls *action* every *period* time units."""

    def ticker() -> Generator[Any, Any, None]:
        while True:
            yield Timeout(period)
            action()

    return sim.spawn(ticker(), name=name)
