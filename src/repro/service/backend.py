"""Pluggable execution backends behind one ``Backend.run(specs)`` face.

The service schedules every job through this interface, so where the
work actually happens — this process's multiprocessing pool, a peer
service on another machine, eventually a real job queue — is a
deployment choice, not a protocol change.  :class:`LocalBackend` wraps
the engine executor (and its on-disk result cache); a
:class:`RemoteBackend` is the client side of another scenario service,
which is what lets N machines drain one queue: point a server's
backend at the next hop and the same ``submit`` flows through.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Mapping, Optional, Sequence, Union

from repro.engine.cache import ResultCache
from repro.engine.executor import execute
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec

ProgressFn = Callable[[ScenarioResult], None]


class Backend:
    """Anything that can execute a batch of specs.

    ``run`` returns results in *completion* order and invokes
    ``progress`` once per result as it lands — the contract streaming
    is built on.  Implementations must be safe to call from a worker
    thread (the server runs them off the event loop).  ``label`` is
    the submitting job's id (or None); backends that journal or
    attribute work use it, the rest ignore it.
    """

    name = "abstract"

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        progress: Optional[ProgressFn] = None,
        *,
        label: Optional[str] = None,
    ) -> List[ScenarioResult]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class LocalBackend(Backend):
    """The engine executor (serial or process pool) plus its cache.

    When constructed with a ``warehouse`` (a
    :class:`~repro.telemetry.warehouse.ResultsWarehouse` or a path to
    one), every result — fresh, failed, or cache replay — is recorded
    as a warehouse row under the submitting job's id, so a whole run
    history is queryable with ``repro query``.
    """

    name = "local"

    def __init__(
        self,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        backend: str = "auto",
        cache: Union[ResultCache, str, Path, None] = None,
        max_cache_entries: Optional[int] = None,
        warehouse=None,
    ):
        self.workers = workers
        self.timeout_s = timeout_s
        self.backend = backend
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache
        #: LRU cap applied (by mtime) after every batch, so long sweep
        #: campaigns can't grow the on-disk cache without bound.
        self.max_cache_entries = max_cache_entries
        if isinstance(warehouse, (str, Path)):
            from repro.telemetry.warehouse import ResultsWarehouse

            warehouse = ResultsWarehouse(warehouse, source="local")
        self.warehouse = warehouse

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        progress: Optional[ProgressFn] = None,
        *,
        label: Optional[str] = None,
    ) -> List[ScenarioResult]:
        completed: List[ScenarioResult] = []
        job_id = label or ""

        def observe(result: ScenarioResult) -> None:
            completed.append(result)
            if self.warehouse is not None:
                self.warehouse.record_result(result, job_id=job_id)
            if progress:
                progress(result)

        execute(
            specs,
            workers=self.workers,
            timeout_s=self.timeout_s,
            backend=self.backend,
            cache=self.cache,
            progress=observe,
        )
        if self.cache is not None and self.max_cache_entries is not None:
            self.cache.prune(self.max_cache_entries)
        return completed

    def describe(self) -> str:
        cache = self.cache.root if self.cache is not None else "off"
        return (
            f"local(workers={self.workers}, backend={self.backend}, "
            f"cache={cache})"
        )


class RemoteBackend(Backend):
    """Client side of a peer scenario service, as a :class:`Backend`.

    A server constructed with this backend forwards every batch to the
    peer and re-streams its results — the stub that turns one service
    into a chainable hop.  The first ``run`` dials the peer and later
    runs reuse that connection; a run that fails or is abandoned drops
    it (the stream may stop mid-frame), so the next run dials afresh.
    :meth:`close` drops it explicitly.

    Timeouts default *finite* so a hung peer can never wedge the hop
    forever: ``connect_timeout`` bounds the dial,``timeout`` bounds
    each read between streamed results.  Pass ``timeout=None``
    explicitly to wait indefinitely (the pre-federation behaviour).
    Connect retries sleep on the shared jittered exponential
    :class:`~repro.service.backoff.Backoff` inside the client, not a
    fixed-delay loop.  ``auth_token`` is presented to a guarded peer.
    A busy peer fails the hop at once with the ``busy`` code: the
    caller still holds the batch and decides where it goes next.
    """

    name = "remote"

    #: dial bound — a dead host fails in seconds, not at TCP's mercy.
    DEFAULT_CONNECT_TIMEOUT_S = 10.0
    #: per-read bound between frames; generous because one slow spec
    #: may legitimately stream nothing for minutes.
    DEFAULT_READ_TIMEOUT_S = 300.0
    _UNSET = object()

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_retries: int = 25,
        timeout: Optional[float] = _UNSET,
        connect_timeout: Optional[float] = _UNSET,
        auth_token: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.connect_retries = connect_retries
        self.auth_token = auth_token
        self._client = None  # the kept connection, dialled by run()
        self.timeout = (
            self.DEFAULT_READ_TIMEOUT_S if timeout is self._UNSET
            else timeout
        )
        self.connect_timeout = (
            self.DEFAULT_CONNECT_TIMEOUT_S if connect_timeout is self._UNSET
            else connect_timeout
        )

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        progress: Optional[ProgressFn] = None,
        *,
        label: Optional[str] = None,
        trace: Optional[Mapping[str, str]] = None,
    ) -> List[ScenarioResult]:
        """Forward the batch as one streamed submit; ``trace`` parents
        the peer's job span on the caller's span."""
        from repro.service.client import ServiceClient

        client = self._client
        if client is None:
            client = self._client = ServiceClient(
                self.host,
                self.port,
                retries=self.connect_retries,
                timeout=self.timeout,
                connect_timeout=self.connect_timeout,
                auth_token=self.auth_token,
                busy_retries=0,
            )
        try:
            return client.submit(specs, progress=progress, trace=trace)
        except BaseException:
            self.close()
            raise

    def abort(self) -> None:
        """Fail an in-flight :meth:`run` from another thread (the
        connection stays unusable until that run drops it)."""
        client = self._client
        if client is not None:
            client.abort()

    def close(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            client.close()

    def describe(self) -> str:
        return f"remote({self.host}:{self.port})"


class PoolBackend(Backend):
    """The cluster pool as a :class:`Backend`: execute nothing locally.

    ``run`` hands every spec to the coordinator's
    :class:`~repro.cluster.coordinator.ClusterPool` (on the event
    loop) and blocks — it is already running on the server's executor
    thread — draining results from a thread-safe sink queue as
    registered workers complete leases.  A raising ``progress``
    callback (the server's cancel path) or a pool shutdown abandons
    the remaining specs.
    """

    name = "pool"

    #: how long to wait for the loop to accept a batch before giving up.
    SUBMIT_TIMEOUT_S = 30.0

    def __init__(self, pool):
        self.pool = pool

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        progress: Optional[ProgressFn] = None,
        *,
        label: Optional[str] = None,
    ) -> List[ScenarioResult]:
        import asyncio
        import queue as stdlib_queue

        specs = list(specs)
        if not specs:
            return []
        sink: "stdlib_queue.Queue" = stdlib_queue.Queue()
        handle = asyncio.run_coroutine_threadsafe(
            self.pool.submit_batch(specs, sink, label=label),
            self.pool.loop,
        )
        batch_id = handle.result(timeout=self.SUBMIT_TIMEOUT_S)
        completed: List[ScenarioResult] = []
        try:
            while len(completed) < len(specs):
                try:
                    kind, payload = sink.get(timeout=1.0)
                except stdlib_queue.Empty:
                    if self.pool.closed:
                        raise RuntimeError(
                            "cluster pool stopped while the batch was "
                            "in flight"
                        ) from None
                    continue
                if kind == "abort":
                    raise RuntimeError(
                        f"cluster pool aborted the batch: {payload}"
                    )
                completed.append(payload)
                if progress:
                    progress(payload)
        finally:
            if len(completed) < len(specs):
                self.pool.loop.call_soon_threadsafe(
                    self.pool.abandon_batch, batch_id
                )
        return completed

    def describe(self) -> str:
        return f"pool({self.pool.describe()})"
