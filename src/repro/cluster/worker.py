"""The cluster worker: lease in, :class:`ScenarioResult` out.

``repro worker --connect host:port`` runs one of these.  A worker is
deliberately stateless: it registers with the coordinator, heartbeats
on the interval the coordinator dictates, executes one leased spec at
a time through an ordinary :class:`~repro.service.backend.LocalBackend`
(so the on-disk result cache and deterministic seeding are exactly the
``repro run`` ones), and streams each result back as a
``lease-result`` frame.  Everything durable lives coordinator-side in
the journal; killing a worker loses nothing but the leases it held,
which the coordinator requeues.

Execution is strictly serial per worker even when ``capacity > 1``
(capacity only prefetches the next lease into the socket buffer):
scenario seeding goes through the process-global RNGs, so in-process
concurrency would break bit-reproducibility.  Scale-out is more
workers, not threads.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from typing import Optional

from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.backend import Backend, LocalBackend
from repro.service.backoff import Backoff
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import ProtocolError
from repro.telemetry.events import BUS, diag
from repro.telemetry.metrics import METRICS
from repro.telemetry.spans import emit_span, new_span_id

_COMPONENT = "cluster.worker"


class WorkerError(Exception):
    """The coordinator refused this worker (auth, protocol, version)."""


class ClusterWorker:
    """One registered worker: connect, lease, execute, report, repeat."""

    #: the coordinator pool this worker forwards to (a
    #: :class:`~repro.cluster.federation.PoolBridge`); None executes
    #: locally.
    pool: Optional[str] = None

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        capacity: int = 1,
        backend: Optional[Backend] = None,
        cache=None,
        max_cache_entries: Optional[int] = None,
        auth_token: Optional[str] = None,
        connect_retries: int = 25,
        retry_delay_s: float = 0.2,
        reconnects: int = 5,
        reconnect_delay_s: float = 1.0,
        quiet: bool = True,
        chaos=None,
    ):
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.capacity = max(1, capacity)
        self.backend = backend if backend is not None else LocalBackend(
            backend="serial", cache=cache,
            max_cache_entries=max_cache_entries,
        )
        self.auth_token = auth_token
        self.connect_retries = connect_retries
        self.retry_delay_s = retry_delay_s
        self.reconnects = reconnects
        self.reconnect_delay_s = reconnect_delay_s
        self.quiet = quiet
        #: optional :class:`repro.cluster.chaos.ChaosMonkey` whose
        #: fire() calls gate the fault-injection hook points below.
        self.chaos = chaos
        self.executed = 0
        self.released = 0
        self.worker_id: Optional[str] = None
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._send_lock = threading.Lock()
        self._client: Optional[ServiceClient] = None

    # -- control ------------------------------------------------------------

    def stop(self) -> None:
        """Exit by severing the connection — there is no goodbye frame;
        the coordinator treats every disconnect the same way, requeueing
        whatever this worker had leased."""
        self._stop.set()
        self._drop_connection()

    #: alias: stopping *is* vanishing abruptly (the fault-injection
    #: tests use this name as the in-process stand-in for SIGKILL).
    kill = stop

    def drain(self) -> None:
        """Graceful exit: finish the in-flight lease, hand unstarted
        leases back with a ``release`` frame, then stop.  This is the
        SIGTERM path — the difference from :meth:`kill` is that the
        coordinator gets the buffered leases back immediately instead
        of waiting out the lease timeout."""
        self._drain.set()

    def _drop_connection(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            client.close()

    def _log(self, text: str) -> None:
        if not self.quiet:
            # diagnostics go to stderr; stdout stays machine-readable
            diag(f"worker {self.name}", text)

    # -- main loop ----------------------------------------------------------

    def run(self) -> int:
        """Serve leases until stopped; returns specs executed.

        Reconnects up to ``reconnects`` times after a lost coordinator
        (the budget resets on every successful registration), pacing
        retries with the shared jittered exponential backoff —
        ``reconnect_delay_s`` is the base delay — so a restarted
        coordinator is not stampeded by its whole fleet at once.
        """
        budget = self.reconnects
        backoff = Backoff(base_s=self.reconnect_delay_s, max_s=30.0)
        while not self._stop.is_set() and not self._drain.is_set():
            try:
                self._serve_one_connection()
                budget = self.reconnects
                backoff.reset()
            except (ServiceError, OSError) as exc:
                if self._stop.is_set():
                    break
                self._log(f"connection lost: {exc}")
            finally:
                self._drop_connection()
            if (self._stop.is_set() or self._drain.is_set()
                    or budget <= 0):
                break
            budget -= 1
            self._pause(backoff.next_delay())
        return self.executed

    def _pause(self, seconds: float) -> None:
        """Interruptible backoff: a stop or drain signal landing
        mid-wait must not sit out a 30s reconnect delay."""
        deadline = time.monotonic() + seconds
        while (time.monotonic() < deadline
               and not self._drain.is_set()
               and not self._stop.wait(0.1)):
            pass

    def _serve_one_connection(self) -> None:
        client = ServiceClient(
            self.host,
            self.port,
            timeout=0.5,  # short poll so stop() is honored promptly
            # the dial gets its own (looser) bound: the 0.5s poll is a
            # read cadence, not a sane limit for TCP setup under load
            connect_timeout=5.0,
            retries=self.connect_retries,
            retry_delay_s=self.retry_delay_s,
            auth_token=self.auth_token,
        )
        self._client = client
        self._send(protocol.make_register(self.name, self.capacity,
                                          pool=self.pool))
        registered = self._await_frame(client, "registered")
        self.worker_id = registered.get("worker")
        self.heartbeat_s = float(registered.get("heartbeat_s") or 5.0)
        self._log(
            f"registered as {self.worker_id} "
            f"(heartbeat every {self.heartbeat_s:g}s)"
        )
        pulse = threading.Thread(
            target=self._heartbeat_loop, args=(client, self.heartbeat_s),
            daemon=True,
        )
        pulse.start()
        try:
            while not self._stop.is_set():
                if self._drain.is_set():
                    self._graceful_release(client)
                    return
                try:
                    frame = client.recv()
                except ServiceError as exc:
                    if exc.code == "timeout":
                        continue
                    raise
                type_ = frame.get("type")
                if type_ == "lease":
                    self._execute_lease(frame)
                elif type_ in ("bye", "pong"):
                    if type_ == "bye":
                        return
                elif type_ == "error":
                    raise WorkerError(
                        f"{frame.get('code')}: {frame.get('message')}"
                    )
        finally:
            pulse.join(timeout=2.0)

    def _graceful_release(self, client: ServiceClient,
                          held=()) -> None:
        """Drain exit: return every buffered (unstarted) lease.

        Leases the coordinator pushed beyond the one just finished sit
        decoded-but-unread in the client; a short read drains them
        (the 0.5s recv timeout doubles as the \"no more buffered
        frames\" signal), then one ``release`` frame hands them all
        back — plus the ``held`` lease ids already read but not run —
        so the coordinator can re-grant immediately instead of waiting
        out the lease timeout.
        """
        leases = list(held)
        while True:
            try:
                frame = client.recv()
            except ServiceError as exc:
                if exc.code == "timeout":
                    break
                return  # connection already gone; timeout recovers them
            if frame.get("type") == "lease" and frame.get("lease"):
                leases.append(str(frame["lease"]))
        if not leases:
            return
        self.released += len(leases)
        METRICS.counter("worker.leases_released").inc(len(leases))
        if BUS.enabled:
            BUS.emit(_COMPONENT, "drain-release", worker=self.name,
                     released=len(leases))
        self._log(f"draining: releasing {len(leases)} unstarted leases")
        try:
            self._send(protocol.make_release(leases, self.worker_id))
            # bounded wait for the ack so the hand-off lands before we
            # close; a dead coordinator must not wedge the drain (the
            # lease timeout recovers the specs either way)
            for _ in range(10):
                try:
                    if client.recv().get("type") == "ack":
                        break
                except ServiceError as exc:
                    if exc.code != "timeout":
                        break
        except (ServiceError, OSError):
            pass

    def _await_frame(self, client: ServiceClient, wanted: str) -> dict:
        while True:
            try:
                frame = client.recv()
            except ServiceError as exc:
                if exc.code == "timeout":
                    if self._stop.is_set():
                        raise
                    continue
                raise
            if frame.get("type") == "error":
                raise WorkerError(
                    f"{frame.get('code')}: {frame.get('message')}"
                )
            if frame.get("type") == wanted:
                return frame

    def _heartbeat_loop(self, client: ServiceClient,
                        heartbeat_s: float) -> None:
        while not self._stop.is_set() and self._client is client:
            delay = (self.chaos.heartbeat_delay()
                     if self.chaos is not None else 0.0)
            time.sleep(heartbeat_s + delay)
            if (self.chaos is not None
                    and self.chaos.fire("skip-heartbeat")):
                continue  # chaos: suppress this pulse
            try:
                self._pulse()
            except (ServiceError, OSError):
                return  # main loop notices the dead socket on its own

    def _pulse(self) -> None:
        """One liveness beat (a bridge first checks its pool)."""
        self._send(protocol.make_heartbeat(self.worker_id))

    def _send(self, message: dict) -> None:
        client = self._client
        if client is None:
            raise ServiceError("connection-lost", "worker stopped")
        with self._send_lock:
            client.send(message)

    # -- execution ----------------------------------------------------------

    def _execute_lease(self, frame: dict) -> None:
        lease_id = frame["lease"]
        job_id = str(frame.get("job") or "")
        trace = frame.get("trace") or {}
        try:
            spec = ScenarioSpec.from_dict(frame["spec"])
        except (KeyError, TypeError, ValueError):
            self._log(f"undecodable lease {lease_id!r}; dropping")
            return
        if BUS.enabled:
            BUS.emit(_COMPONENT, "lease-start", job_id=job_id,
                     spec_hash=spec.content_hash, worker=self.name,
                     lease=lease_id, scenario=spec.name)
        started = time.perf_counter()
        try:
            results = self.backend.run([spec], label=job_id or None)
            result = results[0] if results else ScenarioResult.from_failure(
                spec, "backend returned no result", backend="worker",
                elapsed_s=time.perf_counter() - started,
            )
        except Exception:
            result = ScenarioResult.from_failure(
                spec, traceback.format_exc(), backend="worker",
                elapsed_s=time.perf_counter() - started,
            )
        self.executed += 1
        METRICS.counter("worker.leases_executed").inc()
        if not result.ok:
            METRICS.counter("worker.leases_failed").inc()
        if BUS.enabled:
            BUS.emit(_COMPONENT, "lease-done", job_id=job_id,
                     spec_hash=spec.content_hash, worker=self.name,
                     lease=lease_id, scenario=spec.name,
                     status=result.status,
                     wall_time_s=round(result.elapsed_s, 6))
            if trace.get("id"):
                emit_span(
                    _COMPONENT, "execute",
                    trace_id=str(trace["id"]), span_id=new_span_id(),
                    parent_id=str(trace.get("span") or ""),
                    job_id=job_id, spec_hash=spec.content_hash,
                    duration_s=result.elapsed_s,
                    worker=self.name, status=result.status,
                )
        self._log(
            f"{spec.name} -> {result.status} ({result.elapsed_s:.2f}s)"
        )
        if (self.chaos is not None
                and self.chaos.fire("kill-worker")):
            # chaos: die with the result unsent and leases stranded —
            # the in-schedule stand-in for SIGKILL mid-sweep
            self._log("chaos: kill-worker fired; dying abruptly")
            self.kill()
            return
        try:
            self._send(
                protocol.make_lease_result(lease_id, result.to_dict())
            )
        except ProtocolError as exc:
            # a result too large to frame must not kill the worker (the
            # requeue would cascade the same poison spec through the
            # whole fleet): report a slim error result instead
            self._send(protocol.make_lease_result(
                lease_id,
                ScenarioResult.from_failure(
                    spec, f"result dropped: {exc.code}: {exc}",
                    backend="worker", elapsed_s=result.elapsed_s,
                ).to_dict(),
            ))
        if (self.chaos is not None
                and self.chaos.fire("drop-conn")):
            # chaos: sever the link right after the result lands; the
            # ordinary reconnect budget brings the worker back
            self._log("chaos: drop-conn fired; severing connection")
            raise ServiceError(
                "chaos-drop", "connection dropped by chaos schedule"
            )


class BackgroundWorker:
    """Run a :class:`ClusterWorker` on a daemon thread (tests, CI).

    ``kill()`` severs the connection without any farewell — the
    in-process equivalent of SIGKILLing a worker mid-lease.
    """

    def __init__(self, host: str, port: int, **kwargs):
        kwargs.setdefault("reconnects", 0)
        self.worker = ClusterWorker(host, port, **kwargs)
        self._thread = threading.Thread(target=self.worker.run,
                                        daemon=True)

    def start(self) -> "BackgroundWorker":
        self._thread.start()
        return self

    def stop(self) -> None:
        self.worker.stop()
        self._thread.join(timeout=10)

    def kill(self) -> None:
        self.worker.kill()
        self._thread.join(timeout=10)

    def drain(self) -> None:
        """SIGTERM stand-in: graceful drain, then wait for exit."""
        self.worker.drain()
        self._thread.join(timeout=10)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def __enter__(self) -> "BackgroundWorker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
