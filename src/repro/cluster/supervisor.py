"""Worker supervision: autoscaling, restart backoff, crash-loop cutoff.

The :class:`WorkerSupervisor` is owned by a coordinator and manages a
fleet of *local* worker processes the way an init system manages
daemons, sized the way an autoscaler sizes a pool:

* **autoscaling** — every tick the pool's backlog (queued + in-flight
  specs) is divided by ``specs_per_worker`` and clamped to
  [``min_workers``, ``max_workers``] to get the *desired* worker
  count; slots are added immediately on demand and retired only after
  the backlog has stayed below the scale-down line for
  ``idle_grace_s`` (scale up fast, scale down lazily);
* **restart with backoff** — a slot whose process dies is respawned
  after a jittered exponential delay (shared
  :class:`repro.service.backoff.Backoff` policy) whose attempt number
  is the slot's recent death count, so one crash restarts almost
  immediately and a flapping worker ramps toward the ceiling;
* **crash-loop cutoff** — ``crash_threshold`` deaths inside
  ``crash_window_s`` flips the slot to ``crash-looped``: no more
  restarts, a ``crash-loop`` event on the bus, and the slot keeps
  *occupying* its desired-count position (a crash-looping slot must
  not be silently replaced by a fresh slot, or the loop would just
  migrate).  The coordinator keeps scheduling on the surviving
  workers; the operator sees the cut-off slot in ``repro status``.

The tick core is synchronous and takes an explicit ``now`` —
``clock``, ``rng`` and ``spawn`` are all injectable — so every policy
above is unit-testable with a fake clock and fake process handles, no
real sleeps or subprocesses.  In production :func:`process_spawner`
provides the spawn side: ``sys.executable -m repro worker --connect
…`` children that find their way back through the ordinary register/
heartbeat protocol.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.service.backoff import Backoff
from repro.telemetry.events import BUS
from repro.telemetry.metrics import METRICS

__all__ = [
    "ProcessHandle",
    "WorkerSupervisor",
    "process_spawner",
]

_COMPONENT = "cluster.supervisor"

#: slot states (the ``status()`` vocabulary).
LIVE = "live"
BACKOFF = "backoff"
CRASH_LOOPED = "crash-looped"
RETIRING = "retiring"


class ProcessHandle:
    """A supervised worker subprocess (duck-typed for fakes in tests)."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.pid = proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def terminate(self) -> None:
        """Ask for a graceful drain (SIGTERM → worker finishes lease)."""
        try:
            self.proc.terminate()
        except OSError:
            pass

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass

    def wait(self, timeout: Optional[float] = None) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except Exception:
            pass


def process_spawner(
    connect: str,
    *,
    cache_dir: Optional[str] = None,
    auth_token: Optional[str] = None,
) -> Callable[[int], ProcessHandle]:
    """A ``spawn(slot_index)`` callable launching ``repro worker``.

    Each child is a full out-of-process worker named ``sup-<slot>``: it
    registers with the coordinator at *connect*, heartbeats, leases,
    and — because it is a separate interpreter — its death never takes
    the coordinator down with it.
    """

    def spawn(slot: int) -> ProcessHandle:
        argv = [
            sys.executable, "-m", "repro", "worker",
            "--connect", connect,
            "--name", f"sup-{slot}",
        ]
        if cache_dir:
            argv += ["--cache", f"{cache_dir}/slot-{slot}"]
        if auth_token:
            argv += ["--auth-token", auth_token]
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
        )
        return ProcessHandle(proc)

    return spawn


class _Slot:
    """One desired-worker position and its restart bookkeeping."""

    __slots__ = ("index", "handle", "state", "deaths", "restart_at",
                 "spawned", "restarts")

    def __init__(self, index: int):
        self.index = index
        self.handle = None
        self.state = BACKOFF          # empty slot: spawn on next tick
        self.restart_at = 0.0         # due immediately
        #: recent death timestamps (pruned to the crash window).
        self.deaths: deque = deque()
        self.spawned = 0
        self.restarts = 0


class WorkerSupervisor:
    """Keeps the right number of workers alive, and knows when to stop.

    ``spawn(slot_index) -> handle`` is any callable returning an
    object with ``alive()``/``terminate()``/``kill()`` — in
    production a :class:`ProcessHandle` from :func:`process_spawner`,
    in tests a fake.  ``clock`` and ``rng`` default to the real
    monotonic clock and module RNG; tests inject both.
    """

    def __init__(
        self,
        spawn: Callable[[int], Any],
        min_workers: int = 1,
        max_workers: int = 4,
        *,
        specs_per_worker: int = 4,
        crash_threshold: int = 5,
        crash_window_s: float = 60.0,
        backoff: Optional[Backoff] = None,
        idle_grace_s: float = 5.0,
        tick_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        rng=None,
    ):
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers={max_workers} < min_workers={min_workers}"
            )
        self.spawn = spawn
        self.min_workers = max(0, min_workers)
        self.max_workers = max_workers
        self.specs_per_worker = max(1, specs_per_worker)
        self.crash_threshold = max(1, crash_threshold)
        self.crash_window_s = crash_window_s
        self.backoff = backoff or Backoff(
            base_s=0.2, max_s=10.0, rng=rng
        )
        self.idle_grace_s = idle_grace_s
        self.tick_s = tick_s
        self.clock = clock
        self.slots: List[_Slot] = []
        self.pool = None              # ClusterPool, set by start()
        self.closed = False
        self.spawned_total = 0
        self.restarts_total = 0
        self.retired_total = 0
        self._low_since: Optional[float] = None
        self._task = None

    # -- lifecycle ----------------------------------------------------------

    def start(self, loop, pool) -> None:
        """Attach to the coordinator's pool and start the tick task."""
        self.pool = pool
        self._task = loop.create_task(self._run())

    async def _run(self) -> None:
        import asyncio

        try:
            while not self.closed:
                self.tick(self.clock())
                await asyncio.sleep(self.tick_s)
        except asyncio.CancelledError:
            pass

    def shutdown(self) -> None:
        """Stop ticking; terminate (then reap) every supervised child."""
        if self.closed:
            return
        self.closed = True
        if self._task is not None:
            self._task.cancel()
        for slot in self.slots:
            if slot.handle is not None and slot.handle.alive():
                slot.handle.terminate()
        for slot in self.slots:
            if slot.handle is not None and hasattr(slot.handle, "wait"):
                slot.handle.wait(timeout=5.0)

    # -- the policy tick -----------------------------------------------------

    def desired_workers(self, backlog: int) -> int:
        """Backlog-proportional target, clamped to [min, max]."""
        by_demand = math.ceil(backlog / self.specs_per_worker)
        return min(self.max_workers, max(self.min_workers, by_demand))

    def tick(self, now: float) -> None:
        """One reconcile pass: reap, restart, scale.  Idempotent."""
        if self.closed:
            return
        backlog = self.pool.backlog() if self.pool is not None else 0
        desired = self.desired_workers(backlog)
        self._reap(now)
        self._restart_due(now)
        self._scale_up(desired, now)
        self._scale_down(desired, backlog, now)
        METRICS.gauge("cluster.supervisor.desired").set(desired)
        METRICS.gauge("cluster.supervisor.live").set(
            sum(1 for s in self.slots if s.state == LIVE)
        )

    def _reap(self, now: float) -> None:
        """Notice dead children; schedule restarts or cut the loop."""
        for slot in self.slots:
            if slot.state not in (LIVE, RETIRING):
                continue
            if slot.handle is not None and slot.handle.alive():
                continue
            if slot.state == RETIRING:
                # a retirement completing is the happy path
                continue
            self._died(slot, now)

    def _died(self, slot: _Slot, now: float) -> None:
        """A reaped child or a failed spawn: count the death, then
        schedule the restart or cut the crash loop."""
        slot.handle = None
        slot.deaths.append(now)
        self._prune_deaths(slot, now)
        METRICS.counter("cluster.supervisor.deaths").inc()
        if BUS.enabled:
            BUS.emit(_COMPONENT, "worker-death", slot=slot.index,
                     recent_deaths=len(slot.deaths))
        if len(slot.deaths) >= self.crash_threshold:
            slot.state = CRASH_LOOPED
            METRICS.counter("cluster.supervisor.crash_loops").inc()
            if BUS.enabled:
                BUS.emit(_COMPONENT, "crash-loop", slot=slot.index,
                         deaths=len(slot.deaths),
                         window_s=self.crash_window_s)
            return
        # attempt number = how many times it has died recently,
        # so an isolated crash restarts fast and a flapper ramps
        attempt = len(slot.deaths) - 1
        delay = self.backoff.peek(attempt)
        slot.state = BACKOFF
        slot.restart_at = now + delay
        if BUS.enabled:
            BUS.emit(_COMPONENT, "worker-restart", slot=slot.index,
                     attempt=attempt, delay_s=round(delay, 3))

    def _prune_deaths(self, slot: _Slot, now: float) -> None:
        while slot.deaths and slot.deaths[0] < now - self.crash_window_s:
            slot.deaths.popleft()

    def _restart_due(self, now: float) -> None:
        for slot in self.slots:
            if slot.state == BACKOFF and slot.restart_at <= now:
                self._spawn_into(slot, now, restart=slot.spawned > 0)

    def _spawn_into(self, slot: _Slot, now: float, restart: bool) -> None:
        try:
            slot.handle = self.spawn(slot.index)
        except Exception:
            # a spawn failure is a death: same backoff, same cutoff
            self._died(slot, now)
            return
        slot.state = LIVE
        slot.spawned += 1
        self.spawned_total += 1
        if restart:
            slot.restarts += 1
            self.restarts_total += 1
        METRICS.counter("cluster.supervisor.spawned").inc()
        if BUS.enabled:
            BUS.emit(_COMPONENT, "worker-spawn", slot=slot.index,
                     restart=restart)

    def _scale_up(self, desired: int, now: float) -> None:
        while len(self.slots) < desired:
            slot = _Slot(len(self.slots))
            self.slots.append(slot)
            self._spawn_into(slot, now, restart=False)

    def _scale_down(self, desired: int, backlog: int,
                    now: float) -> None:
        occupied = len(self.slots)
        if occupied <= desired or occupied <= self.min_workers:
            self._low_since = None
            return
        if self._low_since is None:
            self._low_since = now
            return
        if now - self._low_since < self.idle_grace_s:
            return
        # retire from the end: newest slots go first, crash-looped
        # slots are simply dropped (nothing to terminate)
        while len(self.slots) > max(desired, self.min_workers):
            slot = self.slots[-1]
            if slot.state == LIVE and slot.handle is not None:
                slot.handle.terminate()
                slot.state = RETIRING
                self.retired_total += 1
                METRICS.counter("cluster.supervisor.retired").inc()
                if BUS.enabled:
                    BUS.emit(_COMPONENT, "worker-retire",
                             slot=slot.index)
                if slot.handle.alive():
                    # drop it from the roster now; the process drains
                    # and exits on its own schedule
                    self.slots.pop()
                    continue
            self.slots.pop()
        self._low_since = None

    # -- introspection -------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The ``workers: desired/live/…`` block for ``repro status``."""
        backlog = self.pool.backlog() if self.pool is not None else 0
        counts = {LIVE: 0, BACKOFF: 0, CRASH_LOOPED: 0, RETIRING: 0}
        for slot in self.slots:
            counts[slot.state] = counts.get(slot.state, 0) + 1
        return {
            "min": self.min_workers,
            "max": self.max_workers,
            "desired": self.desired_workers(backlog),
            "live": counts[LIVE],
            "restarting": counts[BACKOFF],
            "crash_looped": counts[CRASH_LOOPED],
            "retiring": counts[RETIRING],
            "spawned_total": self.spawned_total,
            "restarts_total": self.restarts_total,
            "retired_total": self.retired_total,
        }
