"""The cluster coordinator: a scenario service that runs jobs on a pool.

One :class:`ClusterCoordinator` listens on one port and speaks the
ordinary service protocol to clients (``submit``/``status``/``stream``/
``cancel``/``shutdown``) *and* the worker protocol to
``repro worker`` processes (``register``/``heartbeat``/
``lease-result``) on the same listener.  Submitted jobs flow through
the server machinery unchanged — validation, streaming, cancel,
status — but execution happens in the :class:`ClusterPool`: every
spec becomes one lease, granted off one FIFO backlog to whichever
worker has free capacity, so a slow worker never strands the tail of
a sweep.

Failure model:

* a worker connection drop (or missed heartbeats past the lease
  timeout) requeues its in-flight leases at the *front* of the
  backlog;
* a coordinator crash is recovered by ``--resume``: the job journal
  is replayed, finished jobs are restored for late ``status``/
  ``stream`` requests, unfinished jobs re-enter the pool with only
  their *pending* specs — journal-completed specs are never
  re-executed (and the journal's lease trail proves it);
* a stale lease result (from a worker that was evicted and later
  answers anyway) is dropped; the requeued copy of that spec is the
  one whose result counts.  Determinism makes the occasional double
  execution harmless.
"""

from __future__ import annotations

import asyncio
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional

from repro.cluster.journal import JobJournal, JournalState
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.service.server import DEFAULT_HOST, Job, ScenarioServer
from repro.telemetry.events import BUS
from repro.telemetry.metrics import METRICS
from repro.telemetry.spans import emit_span, new_span_id

DEFAULT_PORT = 7452
DEFAULT_LEASE_TIMEOUT_S = 30.0

_COMPONENT = "cluster.coordinator"

#: involuntary requeues one spec survives before quarantine.
DEFAULT_MAX_SPEC_RETRIES = 5


class WorkItem:
    """One pending spec of one job, queued or under lease."""

    __slots__ = ("spec", "job", "deliver", "delivered", "leased_at",
                 "requeues", "span_id")

    def __init__(self, spec: ScenarioSpec, job: Job, deliver):
        self.spec = spec
        #: the owning job: its id, trace context and cancel flag
        self.job = job
        self.deliver = deliver    # deliver(job, result), on the loop
        self.delivered = False
        self.leased_at = 0.0      # loop time of the latest grant
        # involuntary requeues only (worker death, undecodable result)
        # — graceful lease releases are free.  Past max_spec_retries
        # the spec is quarantined instead of requeued.
        self.requeues = 0
        # the lease span id is re-minted per grant, so only the grant
        # that completes emits
        self.span_id = ""

    @property
    def owed(self) -> bool:
        """Undelivered, and its job still wants it (not cancelled)."""
        return not self.delivered and not self.job.cancelled


class WorkerHandle:
    """Coordinator-side state for one registered worker connection."""

    def __init__(self, worker_id: str, name: str, capacity: int,
                 writer, lock: asyncio.Lock, now: float,
                 pool: Optional[str] = None):
        self.id = worker_id
        self.name = name
        self.capacity = max(1, capacity)
        #: HOST:PORT of the coordinator pool a bridge forwards to
        #: (:mod:`repro.cluster.federation`); None for a local worker.
        self.pool = pool
        self.writer = writer
        self.lock = lock
        self.last_seen = now
        self.leases: Dict[str, WorkItem] = {}
        self.connected = True
        self.completed = 0
        # set when the worker sends a release frame: a draining worker
        # gets no further grants, or its returned leases would bounce
        # straight back to it
        self.draining = False

    def status(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "leases": len(self.leases),
            "completed": self.completed,
        }


class ClusterPool:
    """Spec scheduler over registered workers: one FIFO backlog.

    Fresh work joins the back; requeues after a lost worker and leases
    a draining worker releases go to the front, since they were next
    in line already.  A worker with free capacity takes the front.
    Lives entirely on the coordinator's event loop.
    """

    def __init__(
        self,
        journal: Optional[JobJournal] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        max_spec_retries: Optional[int] = None,
        chaos=None,
    ):
        self.journal = journal
        self.lease_timeout_s = lease_timeout_s
        self.max_spec_retries = (
            DEFAULT_MAX_SPEC_RETRIES
            if max_spec_retries is None else max(0, max_spec_retries)
        )
        #: optional :class:`repro.cluster.chaos.ChaosMonkey`; the
        #: ``kill-pool`` trigger is counted per granted lease and takes
        #: the whole coordinator process down abruptly.
        self.chaos = chaos
        self.heartbeat_s = max(0.05, lease_timeout_s / 4.0)
        self.queue: Deque[WorkItem] = deque()
        self.workers: Dict[str, WorkerHandle] = {}
        #: pool bridges ever attached (or expected), name -> pool
        #: address; a bridge keeps its entry after it drops, so the
        #: status frame can show that pool dark.
        self.bridges: Dict[str, str] = {}
        self._by_writer: Dict[int, str] = {}
        self.closed = False
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._worker_counter = 0
        self._lease_counter = 0
        self.total_completed = 0
        self.total_requeued = 0
        self.total_quarantined = 0
        self.total_released = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self._monitor_task = loop.create_task(self._monitor())

    def shutdown(self) -> None:
        """Stop scheduling and drop every worker connection."""
        if self.closed:
            return
        self.closed = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        for worker in list(self.workers.values()):
            worker.connected = False
            try:
                worker.writer.close()
            except Exception:
                pass

    def status(self) -> Dict[str, Any]:
        return {
            "workers": {w.id: w.status() for w in self.workers.values()},
            "queued": len(self.queue),
            "inflight": sum(len(w.leases) for w in self.workers.values()),
            "completed": self.total_completed,
            "requeued": self.total_requeued,
            "quarantined": self.total_quarantined,
            "released": self.total_released,
            # one FIFO has nothing to steal; the key stays because the
            # benchmark's outside-in metrics read it
            "steals": 0,
        }

    def pools_status(self) -> Dict[str, Any]:
        """Per-bridge view: ``breaker.state`` is ``closed`` while the
        bridge is registered (its pool answers) and ``open`` otherwise."""
        live = {w.name: w for w in self.workers.values() if w.pool}
        pools = {}
        for name, address in self.bridges.items():
            bridge = live.get(name)
            pools[name] = {
                "pool": address,
                "breaker": {"state": "open" if bridge is None
                            else "closed"},
                "leases": len(bridge.leases) if bridge else 0,
            }
        return pools

    def backlog(self) -> int:
        """Queued + in-flight specs — the autoscaler's demand signal."""
        return len(self.queue) + sum(
            len(w.leases) for w in self.workers.values()
        )

    # -- jobs ----------------------------------------------------------------

    async def submit(self, job: Job, specs: List[ScenarioSpec],
                     deliver) -> None:
        """Queue one item per spec of ``job``; ``deliver(job, result)``
        runs as each result (or quarantine) lands."""
        self.queue.extend(WorkItem(spec, job, deliver) for spec in specs)
        await self.dispatch_all()

    def purge(self, job: Job) -> None:
        """Drop a finished job's queued items, so they leave
        ``queued`` and the autoscaler's backlog at once."""
        self.queue = deque(item for item in self.queue if item.job is not job)

    # -- workers -------------------------------------------------------------

    def register(self, name: str, capacity: int, writer,
                 lock: asyncio.Lock,
                 pool: Optional[str] = None) -> WorkerHandle:
        self._worker_counter += 1
        worker = WorkerHandle(
            f"w{self._worker_counter}", name, capacity, writer, lock,
            now=self.loop.time(), pool=pool,
        )
        self.workers[worker.id] = worker
        if pool:
            self.bridges[name] = pool
        self._by_writer[id(writer)] = worker.id
        METRICS.counter("cluster.workers_registered").inc()
        METRICS.gauge("cluster.workers").set(len(self.workers))
        if BUS.enabled:
            BUS.emit(_COMPONENT, "worker-register", worker=worker.id,
                     name=name, capacity=worker.capacity)
        return worker

    def worker_for_writer(self, writer) -> Optional[WorkerHandle]:
        worker_id = self._by_writer.get(id(writer))
        return self.workers.get(worker_id) if worker_id else None

    def heartbeat(self, worker: WorkerHandle) -> None:
        # liveness is per worker, not per lease: one pulse renews every
        # lease the worker holds (a long scenario just keeps pulsing)
        worker.last_seen = self.loop.time()

    def worker_lost(self, worker_id: str) -> None:
        """Evict a worker; requeue its leases ahead of fresh work."""
        worker = self.workers.pop(worker_id, None)
        if worker is None:
            return
        worker.connected = False
        self._by_writer.pop(id(worker.writer), None)
        requeued = 0
        for item in worker.leases.values():
            if item.owed:
                if self._requeue_or_quarantine(item, front=True):
                    requeued += 1
        worker.leases.clear()
        METRICS.counter("cluster.workers_lost").inc()
        METRICS.gauge("cluster.workers").set(len(self.workers))
        if BUS.enabled:
            BUS.emit(_COMPONENT, "worker-lost", worker=worker_id,
                     name=worker.name, requeued=requeued)
        if not self.closed and (requeued or self.queue):
            self.loop.create_task(self.dispatch_all())

    def _requeue_or_quarantine(self, item: WorkItem,
                               front: bool) -> bool:
        """Requeue an involuntarily-lost lease, or quarantine it.

        Returns True when the item went back on the queue.  Each call
        burns one retry; past ``max_spec_retries`` the spec is deemed
        poisoned — it has now taken down (or confused) too many
        workers — and is converted into a structured failure result so
        the job can finish instead of cycling the same landmine
        through every worker the supervisor restarts.
        """
        item.requeues += 1
        if item.requeues > self.max_spec_retries:
            self._quarantine(item)
            return False
        if front:
            self.queue.appendleft(item)
        else:
            self.queue.append(item)
        self.total_requeued += 1
        METRICS.counter("cluster.leases_requeued").inc()
        return True

    def _quarantine(self, item: WorkItem) -> None:
        """Deliver a poisoned spec as an error result, not a retry."""
        spec = item.spec
        result = ScenarioResult.from_failure(
            spec,
            f"quarantined: requeued {item.requeues} times "
            f"(max_spec_retries={self.max_spec_retries}) — suspected "
            "poisoned spec (kills or wedges workers)",
            backend="cluster",
        )
        item.delivered = True
        self.total_quarantined += 1
        METRICS.counter("cluster.quarantined").inc()
        if BUS.enabled:
            BUS.emit(_COMPONENT, "quarantine", job_id=item.job.id,
                     spec_hash=spec.content_hash,
                     requeues=item.requeues)
        item.deliver(item.job, result)

    def release(self, worker: WorkerHandle,
                lease_ids: List[str]) -> int:
        """Take back leases a draining worker returns unstarted.

        A graceful release goes to the *front* of the backlog (it was
        already next in line) and does not count against the spec's
        retry budget — the spec did nothing wrong.
        """
        worker.draining = True    # no more grants to this worker
        returned = 0
        for lease_id in lease_ids:
            item = worker.leases.pop(lease_id, None)
            if item is None:
                continue
            if item.owed:
                self.queue.appendleft(item)
                returned += 1
        self.total_released += returned
        METRICS.counter("cluster.leases_released").inc(returned)
        if BUS.enabled:
            BUS.emit(_COMPONENT, "lease-release", worker=worker.id,
                     released=returned)
        if returned and not self.closed:
            self.loop.create_task(self.dispatch_all())
        return returned

    async def complete(self, worker: WorkerHandle, lease_id: str,
                       result_data: Mapping[str, Any]) -> None:
        worker.last_seen = self.loop.time()
        item = worker.leases.pop(lease_id, None)
        if item is None:
            # stale lease: already expired and requeued
            METRICS.counter("cluster.stale_results").inc()
            if BUS.enabled:
                BUS.emit(_COMPONENT, "stale-result", worker=worker.id,
                         lease=lease_id)
            return
        result = None
        if item.owed:
            try:
                result = ScenarioResult.from_dict(result_data)
            except (KeyError, TypeError, ValueError):
                # an undecodable result must not orphan the spec;
                # requeue it WITHOUT re-granting this worker, or a
                # deterministic decode failure would spin at network
                # speed (heartbeats re-pump idle workers instead)
                self._requeue_or_quarantine(item, front=False)
                raise
            item.delivered = True
            worker.completed += 1
            self.total_completed += 1
            METRICS.counter("cluster.leases_completed").inc()
            if item.leased_at:
                # grant-to-result latency: execution + queueing + wire
                METRICS.histogram("cluster.lease_latency_s").observe(
                    self.loop.time() - item.leased_at
                )
            if BUS.enabled:
                BUS.emit(_COMPONENT, "lease-complete",
                         job_id=item.job.id,
                         spec_hash=item.spec.content_hash,
                         worker=worker.id, lease=lease_id,
                         status=result.status)
                if item.job.trace_id:
                    emit_span(
                        _COMPONENT, "lease",
                        trace_id=item.job.trace_id, span_id=item.span_id,
                        parent_id=item.job.span_id,
                        job_id=item.job.id,
                        spec_hash=item.spec.content_hash,
                        duration_s=self.loop.time() - item.leased_at,
                        worker=worker.id, status=result.status,
                    )
        # the freed worker gets its next lease before the result goes
        # to the job's journal record and streamers; a grant that
        # fails or is cancelled mid-write must not lose the result
        try:
            await self._grant(worker)
        finally:
            if result is not None and not item.job.cancelled:
                item.deliver(item.job, result)

    # -- scheduling ----------------------------------------------------------

    async def dispatch_all(self) -> None:
        for worker in list(self.workers.values()):
            await self._grant(worker)

    async def _grant(self, worker: WorkerHandle) -> None:
        """Lease the backlog's front to ``worker`` up to its capacity.

        Every lease of one grant goes out in one write, so a worker
        with room for several gets them all before it starts the first.
        """
        if (self.closed or not worker.connected or worker.draining
                or worker.id not in self.workers):
            return
        granted: List[str] = []
        frames: List[bytes] = []
        try:
            while self.queue and len(worker.leases) < worker.capacity:
                item = self.queue.popleft()
                if not item.owed:
                    continue
                self._lease_counter += 1
                lease_id = f"lease-{self._lease_counter}"
                worker.leases[lease_id] = item
                item.leased_at = self.loop.time()
                METRICS.counter("cluster.leases_granted").inc()
                if BUS.enabled:
                    BUS.emit(_COMPONENT, "lease-grant",
                             job_id=item.job.id,
                             spec_hash=item.spec.content_hash,
                             worker=worker.id, lease=lease_id)
                if self.journal is not None:
                    self.journal.record_lease(
                        item.job.id, item.spec.content_hash, worker.id
                    )
                trace = None
                if item.job.trace_id:
                    # lease spans parent on the submitting job's span
                    item.span_id = new_span_id()
                    trace = {"id": item.job.trace_id, "span": item.span_id}
                frames.append(protocol.encode_frame(
                    protocol.make_lease(lease_id, item.spec.to_dict(),
                                        job=item.job.id, trace=trace)
                ))
                granted.append(lease_id)
            if not frames:
                return
            METRICS.gauge("cluster.queued").set(len(self.queue))
            async with worker.lock:
                worker.writer.write(b"".join(frames))
                await worker.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError,
                ProtocolError):
            # every lease of this grant is in worker.leases already, so
            # the worker-lost path requeues them all
            self.worker_lost(worker.id)
            return
        for lease_id in granted:
            if self.chaos is not None and self.chaos.fire("kill-pool"):
                # chaos: the whole pool dies abruptly at this grant —
                # the in-schedule stand-in for SIGKILLing a federated
                # pool (no farewell frames, journal left mid-job)
                import os as _os
                import sys as _sys

                print(
                    f"chaos: kill-pool firing at lease {lease_id}",
                    file=_sys.stderr, flush=True,
                )
                _os._exit(86)

    async def _monitor(self) -> None:
        """Expire leases of workers that stopped heartbeating."""
        try:
            while not self.closed:
                await asyncio.sleep(self.heartbeat_s)
                deadline = self.loop.time() - self.lease_timeout_s
                stale = [
                    w for w in self.workers.values()
                    if w.last_seen < deadline
                ]
                for worker in stale:
                    METRICS.counter("cluster.heartbeat_misses").inc()
                    if BUS.enabled:
                        BUS.emit(_COMPONENT, "heartbeat-miss",
                                 worker=worker.id, name=worker.name,
                                 silent_for_s=round(
                                     self.loop.time() - worker.last_seen,
                                     3,
                                 ))
                    try:
                        worker.writer.close()
                    except Exception:
                        pass
                    self.worker_lost(worker.id)
        except asyncio.CancelledError:
            pass


class ClusterCoordinator(ScenarioServer):
    """A :class:`ScenarioServer` that executes through worker leases.

    Its jobs survive a crash: every job transition lands in the
    :class:`JobJournal`, every streamed result optionally lands as a
    warehouse row, and ``resume=True`` replays the journal on startup
    — finished jobs restored for late ``status``/``stream`` requests,
    unfinished jobs re-entered with only their *pending* specs, so
    journal-completed specs are never re-executed.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        journal_path: Optional[str] = None,
        resume: bool = False,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        auth_token: Optional[str] = None,
        max_pending: Optional[int] = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        warehouse=None,
        max_spec_retries: Optional[int] = None,
        compact_every: Optional[int] = None,
        supervisor=None,
        chaos=None,
    ):
        self.journal = (
            JobJournal(journal_path, compact_every=compact_every)
            if journal_path else None
        )
        # every streamed result also lands as a warehouse row (journal
        # replays on --resume bypass _append_result, so no duplicates)
        if isinstance(warehouse, (str, Path)):
            from repro.telemetry.warehouse import ResultsWarehouse

            warehouse = ResultsWarehouse(warehouse, source="coordinator")
        self.warehouse = warehouse
        self.pool = ClusterPool(
            journal=self.journal, lease_timeout_s=lease_timeout_s,
            max_spec_retries=max_spec_retries, chaos=chaos,
        )
        #: optional :class:`repro.cluster.supervisor.WorkerSupervisor`
        #: started/stopped with the coordinator.
        self.supervisor = supervisor
        super().__init__(
            None,
            host=host,
            port=port,
            max_frame_bytes=max_frame_bytes,
            auth_token=auth_token,
            max_pending=max_pending,
        )
        self._resume = resume

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        loop = asyncio.get_running_loop()
        # the pool must be up before the restore re-enters jobs
        self.pool.start(loop)
        if self._resume and self.journal is not None:
            # the journal folded itself when it opened: no second replay
            self._restore(self.journal.state)
            self.journal.record_resume()
        if self.supervisor is not None:
            self.supervisor.start(loop, self.pool)

    def _restore(self, state: JournalState) -> None:
        """Rebuild journaled jobs; resume the unfinished ones."""
        self._job_counter = max(self._job_counter,
                                state.max_job_number())
        # a copy: journaling a lost job-done below updates state.jobs
        for jj in list(state.jobs.values()):
            pending = [] if jj.finished else jj.pending_specs()
            job = Job(
                id=jj.id,
                specs=list(jj.specs),
                state=jj.state,
                results=list(jj.results),
            )
            self.jobs[job.id] = job
            if jj.finished:
                job.updated.set()
                continue
            if not pending:
                # everything completed before the crash; only the
                # job-done record was lost
                job.state = "done"
                job.updated.set()
                if self.journal is not None:
                    self.journal.record_job_done(job.id, job.state)
                continue
            self._spawn(self._run_job(job, pending))

    def request_stop(self) -> None:
        if self.supervisor is not None:
            self.supervisor.shutdown()
        self.pool.shutdown()
        if self.warehouse is not None:
            try:
                self.warehouse.close()
            except Exception:
                pass  # shutdown must not hang on a sick warehouse
        super().request_stop()

    # -- server hooks -------------------------------------------------------

    async def _execute(self, job: Job, specs: List[ScenarioSpec]) -> None:
        # one queued item per spec; results land through
        # _append_result on this loop, and a cancel pulses job.updated
        expected = len(job.results) + len(specs)
        await self.pool.submit(job, specs, self._append_result)
        while len(job.results) < expected and not job.cancelled:
            job.updated.clear()
            await job.updated.wait()

    def _job_created(self, job: Job) -> None:
        if self.journal is not None:
            self.journal.record_submit(job.id, job.specs)

    def _append_result(self, job: Job, result: ScenarioResult) -> None:
        if self.journal is not None:
            self.journal.record_complete(job.id, result)
        if self.warehouse is not None:
            try:
                self.warehouse.record_result(result, job_id=job.id)
            except Exception:
                # the warehouse is observability, not correctness: a
                # full queue or dead writer must not fail the sweep
                pass
        super()._append_result(job, result)

    def _job_finished(self, job: Job) -> None:
        if job.state == "cancelled":
            # its unleased items would otherwise count in status.queued
            # and the autoscaler's backlog until a worker popped them
            self.pool.purge(job)
        # a shutdown mid-job is an interruption, not an outcome:
        # leaving the journal without a job-done record is exactly what
        # lets --resume pick the job back up
        if self.journal is not None and not self.pool.closed:
            self.journal.record_job_done(job.id, job.state)

    def _connection_closed(self, writer) -> None:
        worker = self.pool.worker_for_writer(writer)
        if worker is not None:
            self.pool.worker_lost(worker.id)

    def _cluster_status(self) -> Optional[Dict[str, Any]]:
        status = self.pool.status()
        if self.pool.bridges:
            status["federation"] = True
            status["pools"] = self.pool.pools_status()
        if self.supervisor is not None:
            status["supervisor"] = self.supervisor.status()
        if self.journal is not None and self.journal.last_compaction:
            status["last_compaction"] = dict(self.journal.last_compaction)
        return status

    # -- worker frames ------------------------------------------------------

    async def _handle_worker_frame(self, type_, message, writer,
                                   lock) -> bool:
        if type_ == "register":
            worker = self.pool.register(
                message["name"], message.get("capacity", 1), writer, lock,
                pool=message.get("pool"),
            )
            await self._send(
                writer, lock,
                protocol.make_registered(
                    worker.id,
                    heartbeat_s=self.pool.heartbeat_s,
                    lease_timeout_s=self.pool.lease_timeout_s,
                ),
            )
            await self.pool._grant(worker)
            return False
        worker = self.pool.worker_for_writer(writer)
        if worker is None:
            await self._send_error(
                writer, lock,
                ProtocolError(
                    "unknown-worker",
                    f"{type_!r} before a successful register on this "
                    "connection",
                ),
            )
            return False
        if type_ == "heartbeat":
            self.pool.heartbeat(worker)
            # heartbeats double as a grant pump: an idle worker picks
            # up anything requeued since its last completion
            await self.pool._grant(worker)
            return False
        if type_ == "release":
            # a draining worker returning unstarted leases; ack so the
            # worker knows the hand-off landed before it exits
            released = self.pool.release(
                worker, [str(x) for x in message.get("leases", ())]
            )
            await self._send(
                writer, lock, protocol.make_ack("release", released)
            )
            return False
        # lease-result
        try:
            await self.pool.complete(
                worker, message["lease"], message["result"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            await self._send_error(
                writer, lock,
                ProtocolError(
                    "bad-message",
                    f"undecodable lease result: "
                    f"{type(exc).__name__}: {exc}",
                ),
            )
        return False
