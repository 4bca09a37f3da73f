"""Asyncio scenario service: validate, schedule, stream.

The server owns three concerns and nothing else:

* **Validation** — every submitted spec dict is rebuilt as a
  :class:`ScenarioSpec` and resolved against the registry *before*
  anything is scheduled; a malformed submit earns a structured
  ``error`` frame and the connection lives on.
* **Scheduling** — a plain server runs each job as one call of its
  :class:`LocalBackend` in a worker thread (the engine executor is
  blocking), with cancellation checked between results.  The
  backend's result cache keeps replays at zero executions, exactly as
  in ``repro run``.  A coordinator overrides the per-job hook and runs
  jobs as pool leases on the event loop itself.
* **Streaming** — each :class:`ScenarioResult` is framed back the
  moment it completes; a client can also re-attach to a running job
  (``stream``) and gets a replay of what it missed, then the live
  tail.  A job keeps each result as a
  :class:`~repro.engine.results.ResultRecord` (its JSON text plus the
  fields the job's counts read), and every frame splices that text in.

The event loop never blocks on scenario work: frames keep being read
while a job streams, which is what makes mid-flight ``cancel`` (and
a second submission on the same connection) possible.
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.engine import registry
from repro.engine.results import ResultRecord, ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol, shard
from repro.service.backend import LocalBackend
from repro.service.protocol import FrameDecoder, ProtocolError
from repro.telemetry.events import BUS
from repro.telemetry.metrics import METRICS
from repro.telemetry.spans import emit_span, new_span_id, new_trace_id

_COMPONENT = "service.server"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7341


class _JobCancelled(Exception):
    """Raised inside the backend thread to abandon a cancelled job."""


@dataclass
class Job:
    """One submitted job: its specs and its results."""

    id: str
    specs: List[ScenarioSpec]
    state: str = "running"          # running | done | cancelled | error
    #: in completion order, as compact records: a finished job costs
    #: about its results' wire text, however long it is retained.
    results: List[ResultRecord] = field(default_factory=list)
    cancelled: bool = False
    error: Optional[str] = None
    #: pulsed on every append, cancel and finish, so streamers and a
    #: coordinator's waiting job wake up.
    updated: asyncio.Event = field(default_factory=asyncio.Event)
    #: trace identity: minted at submit (or inherited from the submit
    #: frame's ``trace``); empty on journal-restored jobs, which emit
    #: no span (their wall time would be a lie).
    trace_id: str = ""
    span_id: str = ""
    parent_span: str = ""
    started_monotonic: float = 0.0

    @property
    def finished(self) -> bool:
        return self.state != "running"

    def counts(self) -> Dict[str, int]:
        cached = sum(1 for r in self.results if r.cached)
        failed = sum(1 for r in self.results if not r.ok)
        return {
            "total": len(self.specs),
            "completed": len(self.results),
            "executed": len(self.results) - cached,
            "cached": cached,
            "failed": failed,
        }

    def status(self) -> Dict[str, Any]:
        return {"state": self.state, **self.counts()}


class ScenarioServer:
    """The TCP front-end; one instance per listening socket."""

    #: finished jobs retained for late `stream`/`status` requests; the
    #: oldest beyond this are evicted so a long-lived server's memory
    #: is bounded by its *running* work, not its history.
    MAX_FINISHED_JOBS = 64

    def __init__(
        self,
        backend: Optional[LocalBackend] = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        auth_token: Optional[str] = None,
        max_pending: Optional[int] = None,
    ):
        #: what a plain server runs jobs on; None on a coordinator,
        #: whose jobs run as pool leases.
        self.backend = backend
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        #: shared-secret listener auth; None = open listener.
        self.auth_token = auth_token
        #: backpressure: cap on specs accepted but not yet completed.
        self.max_pending = max_pending
        self.jobs: Dict[str, Job] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop = asyncio.Event()
        self._job_counter = 0
        self._tasks: set = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        registry.load_all()  # fail fast + workers inherit under fork
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        await self._stop.wait()
        self._server.close()
        await self._server.wait_closed()
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def serve(self) -> None:
        if self._server is None:
            await self.start()
        await self.wait_stopped()

    def request_stop(self) -> None:
        self._stop.set()

    # -- connection handling ------------------------------------------------

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _handle_connection(self, reader, writer) -> None:
        # register with the task set so wait_stopped() cancels and
        # drains open connections instead of orphaning them (the
        # listener's close() only stops *new* connections)
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        decoder = FrameDecoder(self.max_frame_bytes)
        write_lock = asyncio.Lock()
        METRICS.counter("service.connections").inc()
        METRICS.gauge("service.open_connections").inc()
        if BUS.enabled:
            peer = writer.get_extra_info("peername")
            BUS.emit(_COMPONENT, "connect",
                     peer=str(peer) if peer else "")
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                try:
                    decoder.feed(data)
                except ProtocolError as exc:
                    await self._send_error(writer, write_lock, exc)
                    return  # oversized frames are unrecoverable
                while True:
                    try:
                        message = decoder.next_frame()
                    except ProtocolError as exc:
                        await self._send_error(writer, write_lock, exc)
                        if exc.fatal:
                            return
                        continue
                    if message is None:
                        break
                    if await self._dispatch(message, writer, write_lock,
                                            decoder.result_json):
                        return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            METRICS.gauge("service.open_connections").dec()
            if BUS.enabled:
                BUS.emit(_COMPONENT, "disconnect")
            self._connection_closed(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                # swallowing the cancellation here lets a connection
                # task cancelled by wait_stopped() finish cleanly
                # instead of tripping asyncio's exception callback
                pass

    def _connection_closed(self, writer) -> None:
        """Hook: a connection ended (coordinator uses it to evict
        the worker registered on it)."""

    def _cluster_status(self) -> Optional[Dict[str, Any]]:
        """Hook: pool/worker status for the ``status`` frame (the
        coordinator reports its pool; a plain server has none)."""
        return None

    async def _send(self, writer, lock: asyncio.Lock,
                    message: Mapping[str, Any],
                    result_json: Optional[str] = None) -> None:
        frame = protocol.encode_frame(message, result_json)
        async with lock:
            writer.write(frame)
            await writer.drain()

    async def _send_error(self, writer, lock, exc: ProtocolError,
                          job: Optional[str] = None) -> None:
        METRICS.counter("service.rejects").inc()
        METRICS.counter(f"service.rejects.{exc.code}").inc()
        if BUS.enabled:
            BUS.emit(_COMPONENT, "reject", job_id=job or "",
                     code=exc.code, message=str(exc))
        try:
            await self._send(
                writer, lock, protocol.make_error(exc.code, str(exc),
                                                  job=job)
            )
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(self, message, writer, lock,
                        result_json: Optional[str] = None) -> bool:
        """Handle one request; True means close this connection.

        ``result_json`` is the text of the frame's ``result`` field as
        the decoder kept it (:attr:`FrameDecoder.result_json`)."""
        try:
            protocol.check_token(message, self.auth_token)
            type_ = protocol.validate_request(message)
        except ProtocolError as exc:
            await self._send_error(writer, lock, exc)
            return False
        if type_ in protocol.WORKER_REQUEST_TYPES:
            return await self._handle_worker_frame(
                type_, message, writer, lock, result_json
            )
        if type_ == "ping":
            await self._send(writer, lock, protocol.make_pong())
            return False
        if type_ == "shutdown":
            await self._send(writer, lock, protocol.make_bye())
            self.request_stop()
            return True
        if type_ == "status":
            wanted = message.get("job")
            if wanted is not None and wanted not in self.jobs:
                await self._send_error(
                    writer, lock,
                    ProtocolError("unknown-job", f"no job {wanted!r}"),
                )
                return False
            jobs = {
                job_id: job.status() for job_id, job in self.jobs.items()
                if wanted is None or job_id == wanted
            }
            await self._send(writer, lock, protocol.make_status_reply(
                jobs, metrics=METRICS.snapshot(),
                cluster=self._cluster_status(),
            ))
            return False
        if type_ == "stream":
            job = self.jobs.get(message["job"])
            if job is None:
                await self._send_error(
                    writer, lock,
                    ProtocolError("unknown-job",
                                  f"no job {message['job']!r}"),
                )
                return False
            self._spawn(self._stream_job(job, writer, lock))
            return False
        if type_ == "cancel":
            job = self.jobs.get(message["job"])
            if job is None:
                await self._send_error(
                    writer, lock,
                    ProtocolError("unknown-job",
                                  f"no job {message['job']!r}"),
                )
                return False
            job.cancelled = True
            job.updated.set()  # a job waiting on the loop ends at once
            METRICS.counter("service.cancels").inc()
            if BUS.enabled:
                BUS.emit(_COMPONENT, "cancel", job_id=job.id)
            await self._send(
                writer, lock, protocol.make_ack(job.id, len(job.specs))
            )
            return False
        # submit
        if self._stop.is_set():
            await self._send_error(
                writer, lock,
                ProtocolError("shutting-down", "server is shutting down"),
            )
            return False
        await self._handle_submit(message, writer, lock)
        return False

    async def _handle_worker_frame(self, type_, message, writer, lock,
                                   result_json=None) -> bool:
        """Hook: worker frames land here; a plain server has no pool."""
        await self._send_error(
            writer, lock,
            ProtocolError(
                "unsupported",
                f"{type_!r} frames need a coordinator "
                "(repro coordinator), not a plain server",
            ),
        )
        return False

    def _pending_specs(self) -> int:
        """Specs accepted but not yet completed, across all jobs."""
        return sum(
            max(0, len(job.specs) - len(job.results))
            for job in self.jobs.values()
            if not job.finished
        )

    async def _handle_submit(self, message, writer, lock) -> None:
        try:
            specs = self._build_specs(message)
        except ProtocolError as exc:
            await self._send_error(writer, lock, exc)
            return
        if self.max_pending is not None:
            pending = self._pending_specs()
            if pending + len(specs) > self.max_pending:
                await self._send(
                    writer, lock,
                    protocol.make_error(
                        "busy",
                        f"pending-spec queue is full ({pending} pending, "
                        f"{len(specs)} submitted, cap {self.max_pending}); "
                        "retry with backoff",
                        detail={"pending": pending,
                                "submitted": len(specs),
                                "max_pending": self.max_pending},
                    ),
                )
                return
        self._job_counter += 1
        trace = message.get("trace") or {}
        job = Job(id=f"job-{self._job_counter}", specs=specs,
                  trace_id=trace.get("id") or new_trace_id(),
                  span_id=new_span_id(),
                  parent_span=trace.get("span", ""),
                  started_monotonic=time.monotonic())
        self.jobs[job.id] = job
        self._job_created(job)
        METRICS.counter("service.submits").inc()
        METRICS.counter("service.specs_accepted").inc(len(specs))
        METRICS.gauge("service.pending_specs").set(self._pending_specs())
        if BUS.enabled:
            BUS.emit(_COMPONENT, "submit", job_id=job.id,
                     specs=len(specs), trace=job.trace_id)
        await self._send(
            writer, lock, protocol.make_ack(job.id, len(specs))
        )
        self._spawn(self._run_job(job, specs))
        if message.get("stream", True):
            self._spawn(self._stream_job(job, writer, lock))

    def _job_created(self, job: Job) -> None:
        """Hook: a job was accepted (coordinator journals it here)."""

    def _job_finished(self, job: Job) -> None:
        """Hook: a job reached a terminal state."""

    def _build_specs(self, message) -> List[ScenarioSpec]:
        """Validate spec dicts against the registry; expand sweep/shard."""
        specs: List[ScenarioSpec] = []
        for index, data in enumerate(message["specs"]):
            try:
                spec = ScenarioSpec.from_dict(data)
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(
                    "bad-spec",
                    f"spec #{index} is malformed: "
                    f"{type(exc).__name__}: {exc}",
                ) from None
            try:
                registry.get(spec.name)
            except KeyError:
                raise ProtocolError(
                    "unknown-scenario",
                    f"spec #{index} names unknown scenario "
                    f"{spec.name!r}",
                ) from None
            specs.append(spec)
        sweep = message.get("sweep")
        if sweep:
            try:
                specs = shard.expand_specs(specs, sweep)
            except (TypeError, ValueError) as exc:
                raise ProtocolError("bad-message",
                                    f"bad sweep: {exc}") from None
        picked = message.get("shard")
        if picked is not None:
            try:
                specs = shard.shard_specs(specs, picked[0], picked[1])
            except ValueError as exc:
                raise ProtocolError("bad-message", str(exc)) from None
        if not specs:
            raise ProtocolError(
                "bad-message", "selection expands to zero specs"
            )
        return specs

    # -- job execution ------------------------------------------------------

    async def _execute(self, job: Job, specs: List[ScenarioSpec]) -> None:
        """Hook: run ``specs`` as one call of the blocking backend on an
        executor thread (a coordinator leases them out instead)."""
        loop = asyncio.get_running_loop()

        def on_result(result: ScenarioResult) -> None:
            # runs in the backend thread: hand the result to the loop,
            # then bail out mid-batch if the job was cancelled.
            loop.call_soon_threadsafe(self._append_result, job, result)
            if job.cancelled:
                raise _JobCancelled

        await loop.run_in_executor(
            None,
            lambda: self.backend.run(specs, progress=on_result,
                                     label=job.id),
        )

    async def _run_job(self, job: Job, specs: List[ScenarioSpec]) -> None:
        """Run ``specs`` (all of a fresh job's, or the pending ones of a
        resumed job) and record how the job ended."""
        try:
            await self._execute(job, specs)
            job.state = "cancelled" if job.cancelled else "done"
        except _JobCancelled:
            job.state = "cancelled"
        except asyncio.CancelledError:
            job.state = "cancelled"
            raise
        except Exception:
            job.state = "error"
            job.error = traceback.format_exc()
        finally:
            job.updated.set()
            METRICS.counter("service.jobs_finished").inc()
            METRICS.counter(f"service.jobs_{job.state}").inc()
            METRICS.gauge("service.pending_specs").set(
                self._pending_specs()
            )
            if BUS.enabled:
                BUS.emit(_COMPONENT, "job-done", job_id=job.id,
                         state=job.state, **job.counts())
                if job.trace_id:
                    emit_span(
                        _COMPONENT, "job",
                        trace_id=job.trace_id, span_id=job.span_id,
                        parent_id=job.parent_span, job_id=job.id,
                        duration_s=time.monotonic()
                        - job.started_monotonic,
                        state=job.state, specs=len(job.specs),
                    )
            self._job_finished(job)
            self._prune_jobs()

    def _prune_jobs(self) -> None:
        finished = [j for j in self.jobs.values() if j.finished]
        for job in finished[: max(0, len(finished)
                                  - self.MAX_FINISHED_JOBS)]:
            del self.jobs[job.id]

    def _append_result(self, job: Job,
                       result: ScenarioResult | ResultRecord) -> None:
        job.results.append(ResultRecord.of(result))
        job.updated.set()
        METRICS.counter("service.results_completed").inc()
        METRICS.gauge("service.pending_specs").set(self._pending_specs())

    # -- streaming ----------------------------------------------------------

    async def _stream_job(self, job: Job, writer, lock) -> None:
        sent = 0
        if BUS.enabled:
            BUS.emit(_COMPONENT, "stream", job_id=job.id,
                     already_completed=len(job.results))
        try:
            while True:
                while sent < len(job.results):
                    await self._send(
                        writer,
                        lock,
                        protocol.make_result(job.id, sent),
                        job.results[sent].to_json(),
                    )
                    sent += 1
                    METRICS.counter("service.results_streamed").inc()
                if job.finished:
                    break
                job.updated.clear()
                # re-check before sleeping: a result may have landed
                # between the len() check and the clear() (same loop
                # tick, so actually impossible — but cheap insurance
                # against future refactors moving an await in between).
                if sent == len(job.results) and not job.finished:
                    await job.updated.wait()
            if job.state == "error":
                await self._send(
                    writer,
                    lock,
                    protocol.make_error(
                        "server-error",
                        f"job {job.id} failed: {job.error}",
                        job=job.id,
                    ),
                )
                return
            counts = job.counts()
            await self._send(
                writer,
                lock,
                protocol.make_done(
                    job.id,
                    total=counts["total"],
                    executed=counts["executed"],
                    cached=counts["cached"],
                    failed=counts["failed"],
                    cancelled=job.state == "cancelled",
                ),
            )
        except ProtocolError as exc:
            # an unencodable frame (e.g. a result bigger than the frame
            # ceiling) must not kill the stream silently — the client
            # would wait forever; the error frame itself is tiny
            await self._send_error(writer, lock, exc, job=job.id)
        except (ConnectionResetError, BrokenPipeError, OSError):
            # client went away mid-stream; the job keeps running and
            # its results stay available to a later `stream` request.
            pass


# -- embedding helpers ------------------------------------------------------


async def _serve(server: ScenarioServer,
                 ready: Optional[threading.Event] = None) -> None:
    await server.start()
    if ready is not None:
        ready.set()
    await server.wait_stopped()


class BackgroundServer:
    """Run a :class:`ScenarioServer` on a daemon thread (tests, CI).

    Usage::

        with BackgroundServer(LocalBackend()) as bg:
            client = ServiceClient("127.0.0.1", bg.port)
    """

    def __init__(self, backend: Optional[LocalBackend] = None,
                 host: str = DEFAULT_HOST, port: int = 0,
                 server: Optional[ScenarioServer] = None):
        # a prebuilt server (e.g. a ClusterCoordinator) can be handed
        # in directly; backend/host/port describe the default one.
        self.server = server if server is not None else ScenarioServer(
            backend, host=host, port=port
        )
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(_serve(self.server, self._ready))
        finally:
            self._ready.set()  # unblock start() even on startup failure
            try:
                # let in-flight backend threads drain before the loop
                # goes away (they post results via call_soon_threadsafe)
                self._loop.run_until_complete(
                    self._loop.shutdown_default_executor()
                )
            except RuntimeError:
                pass
            self._loop.close()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("scenario server failed to start in 10s")
        if not self._thread.is_alive() and self.server._server is None:
            raise RuntimeError("scenario server died during startup")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout=10)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
