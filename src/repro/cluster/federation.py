"""Federated pools: a whole coordinator pool as one more worker.

The paper's DSOC model keeps one programming interface wherever an
object runs; the cluster keeps one scheduler wherever a lease runs.  A
:class:`PoolBridge` is a :class:`~repro.cluster.worker.ClusterWorker`
whose leases run on a peer ``repro coordinator`` pool.  It registers
on any coordinator (the *front*) and sends every batch of leases it
holds to its pool as one streamed submit over one kept pool
connection.  The front's ordinary
:class:`~repro.cluster.coordinator.ClusterPool` does all of the
scheduling — grants, requeues, quarantine, the journal and
``--resume`` — so federation adds no scheduler of its own.

Pool failures reuse the worker story one level up:

* **pool dark or hung** — a failed hop, or a pool that misses a ping
  at the heartbeat interval, makes the bridge drop its front
  connection; the front's worker-lost path requeues the bridge's
  leases, charged against each spec's retry budget;
* **pool back** — the bridge re-registers once the pool answers a
  ping again, paced by the worker's reconnect backoff;
* **busy pool** — the bridge releases its leases (uncharged) and
  re-registers after a backoff;
* **drain** — SIGTERM on ``repro worker --pool`` lets the batch
  already at the pool finish and releases the rest.

:class:`FederatedCoordinator` is ``repro federate``: a coordinator
that starts one in-process bridge per ``--pool`` once its port is
bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.worker import ClusterWorker
from repro.engine.spec import ScenarioSpec
from repro.service.backoff import Backoff
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import parse_address
from repro.service.server import DEFAULT_HOST
from repro.telemetry.events import BUS
from repro.telemetry.metrics import METRICS
from repro.telemetry.spans import emit_span, new_span_id

DEFAULT_PORT = 7460
DEFAULT_CHUNK_SPECS = 4

_COMPONENT = "cluster.federation"

#: ``"HOST:PORT"`` or a ``(host, port)`` pair.
PoolAddress = Union[str, Tuple[str, int]]


class PoolBridge(ClusterWorker):
    """A worker whose leases run on a whole peer coordinator pool.

    ``capacity`` is the most leases one submit to the pool carries.
    The same ``auth_token`` is presented to the front and the pool.
    """

    #: ping bound before a registration; once registered, a ping
    #: slower than one heartbeat interval counts as a miss.
    PING_TIMEOUT_S = 5.0
    #: dial bound of the pool connection: a dead host fails in seconds.
    CONNECT_TIMEOUT_S = 10.0

    def __init__(self, host: str, port: int, pool: PoolAddress, *,
                 capacity: int = DEFAULT_CHUNK_SPECS, auth_token=None,
                 **kwargs):
        # the inherited LocalBackend stays idle: _execute_lease below
        # sends every lease to the pool
        super().__init__(host, port, capacity=capacity,
                         auth_token=auth_token, **kwargs)
        if not isinstance(pool, str):
            pool = "%s:%s" % tuple(pool)
        pool_host, pool_port = self.pool_address = parse_address(pool)
        self.pool = f"{pool_host}:{pool_port}"
        #: the kept pool connection: dialled by the first batch, dropped
        #: by a failed or aborted one, so the next batch dials afresh.
        self._pool_client: Optional[ServiceClient] = None
        #: set when the current front connection ends because of the
        #: pool (dark, hung or busy), which costs no reconnect budget.
        self._pool_failed = False
        self._fail_lock = threading.Lock()
        #: lease ids of the batch at the pool that have no result yet.
        self._held: List[str] = []

    def run(self) -> int:
        try:
            return super().run()
        finally:
            self._drop_pool_client()

    def stop(self) -> None:
        super().stop()
        self._abort_pool_client()

    kill = stop

    # -- the pool connection ------------------------------------------------

    def _submit_to_pool(self, specs: List[ScenarioSpec], deliver,
                        trace: Optional[Dict[str, str]]) -> None:
        """Send one batch as a streamed submit; ``trace`` parents the
        pool's job span on the bridge's span."""
        client = self._pool_client
        if client is None:
            # a pool that just answered a ping gets one dial; reads are
            # unbounded because the ping is the liveness check; a busy
            # pool fails the batch at once
            client = self._pool_client = ServiceClient(
                *self.pool_address, connect_timeout=self.CONNECT_TIMEOUT_S,
                auth_token=self.auth_token, busy_retries=0,
            )
        try:
            client.submit(specs, progress=deliver, trace=trace)
        except BaseException:
            # the stream may have stopped mid-frame
            self._drop_pool_client()
            raise

    def _abort_pool_client(self) -> None:
        """Fail an in-flight batch from another thread; the batch's
        thread then drops the connection."""
        client = self._pool_client
        if client is not None:
            client.abort()

    def _drop_pool_client(self) -> None:
        client, self._pool_client = self._pool_client, None
        if client is not None:
            client.close()

    # -- pool liveness ------------------------------------------------------

    def _pool_answers(self, timeout: float) -> bool:
        try:
            with ServiceClient(*self.pool_address, timeout=timeout,
                               auth_token=self.auth_token) as client:
                return client.ping()
        except (ServiceError, OSError):
            return False

    def _serve_one_connection(self) -> None:
        # register only while the pool answers
        backoff = Backoff(base_s=self.reconnect_delay_s, max_s=30.0)
        while not self._pool_answers(self.PING_TIMEOUT_S):
            self._pause(backoff.next_delay())
            if self._stop.is_set() or self._drain.is_set():
                return
        # a connection kept from before the pool failed is stale
        self._drop_pool_client()
        self._pool_failed = False
        try:
            super()._serve_one_connection()
        except (ServiceError, OSError):
            if not self._pool_failed:
                raise  # the front went away: the normal reconnect path

    def _pulse(self) -> None:
        if not self._pool_answers(self.heartbeat_s):
            self._pool_dark("missed a ping")
            raise ServiceError("pool-dark", f"{self.pool} missed a ping")
        super()._pulse()

    def _pool_dark(self, reason: str) -> None:
        """Drop the front connection so the front requeues every lease
        this bridge holds, charged like any lost worker's."""
        with self._fail_lock:
            if self._pool_failed:
                return
            self._pool_failed = True
        lost = len(self._held)
        METRICS.counter("federation.breaker_opens").inc()
        METRICS.counter("federation.rehomed").inc(lost)
        if BUS.enabled:
            BUS.emit(_COMPONENT, "pool-dark", pool=self.pool,
                     bridge=self.name, rehomed=lost, reason=reason)
        self._log(f"pool {self.pool} dark ({reason}); "
                  f"{lost} leases go back to the front")
        self._abort_pool_client()
        client = self._client
        if client is not None:
            # the serving thread sees the drop and closes the client
            client.abort()

    # -- execution ----------------------------------------------------------

    def _queued_leases(self) -> List[dict]:
        """Lease frames that already arrived behind the one in hand."""
        frames: List[dict] = []
        client = self._client
        while client is not None and len(frames) + 1 < self.capacity:
            frame = client.poll()
            if frame is None:
                break
            if frame.get("type") == "lease":
                frames.append(frame)
        return frames

    def _execute_lease(self, frame: dict) -> None:
        """Send this lease and those queued behind it to the pool as one
        streamed submit; report each result the moment it lands."""
        frames = [frame, *self._queued_leases()]
        leases: Dict[str, Deque[str]] = {}
        specs: List[ScenarioSpec] = []
        for lease in frames:
            try:
                spec = ScenarioSpec.from_dict(lease["spec"])
            except (KeyError, TypeError, ValueError):
                self._log(f"undecodable lease {lease.get('lease')!r}; "
                          "dropping")
                continue
            specs.append(spec)
            leases.setdefault(spec.content_hash, deque()).append(
                str(lease["lease"])
            )
        if not specs:
            return
        job_id = str(frame.get("job") or "")
        self._held = [lease for ids in leases.values() for lease in ids]
        trace, parent = None, ""
        for lease in frames:
            context = lease.get("trace") or {}
            if context.get("id"):
                trace = {"id": str(context["id"]), "span": new_span_id()}
                parent = str(context.get("span") or "")
                break
        front_lost = False

        def deliver(result) -> None:
            nonlocal front_lost
            pending = leases.get(result.spec_hash)
            if not pending:
                return
            lease_id = pending.popleft()
            self._held.remove(lease_id)
            self.executed += 1
            if BUS.enabled:
                BUS.emit(_COMPONENT, "pool-complete", job_id=job_id,
                         spec_hash=result.spec_hash, pool=self.pool,
                         status=result.status)
            try:
                self._send_result(lease_id, result)
            except (ServiceError, OSError):
                front_lost = True
                raise

        started = time.monotonic()
        try:
            self._submit_to_pool(specs, deliver, trace)
            if self._held:
                raise ServiceError(
                    "incomplete",
                    f"pool finished with {len(self._held)} results missing",
                )
        except (ServiceError, OSError, KeyError, TypeError,
                ValueError) as exc:
            if front_lost or self._stop.is_set():
                raise
            if isinstance(exc, ServiceError) and exc.code == "busy":
                # the pool and the specs did nothing wrong: hand the
                # leases back uncharged, re-register after a backoff
                self._pool_failed = True
                if self._client is not None:
                    self._graceful_release(self._client, held=self._held)
            else:
                self._pool_dark(f"{type(exc).__name__}: {exc}")
            raise ServiceError("pool-failed", str(exc)) from None
        finally:
            if trace and BUS.enabled:
                emit_span(
                    _COMPONENT, "bridge",
                    trace_id=trace["id"], span_id=trace["span"],
                    parent_id=parent, job_id=job_id,
                    duration_s=time.monotonic() - started,
                    pool=self.pool, specs=len(specs),
                    completed=len(specs) - len(self._held),
                )
            self._held = []


class FederatedCoordinator(ClusterCoordinator):
    """``repro federate``: a coordinator fronting peer pools.

    Once its port is bound it starts one in-process :class:`PoolBridge`
    per ``pools`` entry, named ``pool-1``, ``pool-2``, … in order, each
    carrying up to ``chunk_specs`` leases per submit.  Until a bridge
    registers, the status frame shows its pool ``open``.
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 *, pools: Sequence[PoolAddress] = (),
                 chunk_specs: int = DEFAULT_CHUNK_SPECS, **kwargs):
        super().__init__(host, port, **kwargs)
        self.bridges = [
            PoolBridge(host, port, entry, name=f"pool-{index}",
                       capacity=chunk_specs, auth_token=self.auth_token,
                       quiet=False)
            for index, entry in enumerate(pools, 1)
        ]
        for bridge in self.bridges:
            self.pool.bridges[bridge.name] = bridge.pool

    async def start(self) -> None:
        await super().start()
        for bridge in self.bridges:
            bridge.port = self.port  # port 0 is resolved only now
            threading.Thread(target=bridge.run, daemon=True,
                             name=f"bridge-{bridge.name}").start()

    def request_stop(self) -> None:
        for bridge in self.bridges:
            bridge.stop()
        super().request_stop()
