"""Blocking client for the scenario service (CLI, tests, RemoteBackend).

Deliberately synchronous: the consumers — ``repro submit``, a
:class:`~repro.service.backend.RemoteBackend` running inside a server's
worker thread, CI smoke scripts — all want a plain iterator of results,
not an event loop.  Framing is shared with the server via
:mod:`repro.service.protocol`, including the max-frame guard on reads.
"""

from __future__ import annotations

import select
import socket
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.backoff import Backoff, jittered_delay
from repro.service.protocol import FrameDecoder, ProtocolError


class ServiceError(Exception):
    """A structured ``error`` frame (or transport failure) from the service."""

    def __init__(self, code: str, message: str,
                 detail: Optional[Any] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.detail = detail


class ServiceClient:
    """One connection speaking the JSON-lines protocol."""

    #: ``busy`` backoff: attempts beyond the first submit, base delay,
    #: and the ceiling one sleep may reach.  Delays come from the
    #: shared :func:`repro.service.backoff.jittered_delay` helper —
    #: exponential base times a uniform jitter in [0.5, 1.0) — so a
    #: burst of rejected clients doesn't re-stampede in lockstep.
    BUSY_RETRIES = 6
    BUSY_BASE_DELAY_S = 0.1
    BUSY_MAX_DELAY_S = 5.0

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = None,
        connect_timeout: Optional[float] = None,
        retries: int = 0,
        retry_delay_s: float = 0.2,
        auth_token: Optional[str] = None,
        busy_retries: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: dial timeout for :func:`socket.create_connection`; falls back
        #: to ``timeout`` when None, so a read timeout alone still bounds
        #: the connect and a finite connect bound never loosens reads.
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self.auth_token = auth_token
        self.busy_retries = (
            self.BUSY_RETRIES if busy_retries is None else busy_retries
        )
        self._decoder = FrameDecoder()
        self._sock: Optional[socket.socket] = None
        self.last_done: Optional[Dict[str, Any]] = None
        self.last_job: Optional[str] = None
        self._connect(retries, retry_delay_s)

    def _connect(self, retries: int, delay_s: float) -> None:
        last_error: Optional[OSError] = None
        attempts = max(1, retries + 1)
        backoff = Backoff(base_s=delay_s, max_s=max(delay_s, 2.0))
        for attempt in range(attempts):
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                self._sock.settimeout(self.timeout)
                return
            except OSError as exc:
                last_error = exc
                if attempt + 1 < attempts:
                    time.sleep(backoff.next_delay())
        raise ServiceError(
            "connect-failed",
            f"cannot reach {self.host}:{self.port}: {last_error}",
        )

    # -- transport ----------------------------------------------------------

    def send(self, message: Mapping[str, Any]) -> None:
        message = protocol.attach_token(dict(message), self.auth_token)
        try:
            self._sock.sendall(protocol.encode_frame(message))
        except OSError as exc:
            raise ServiceError(
                "connection-lost", f"send failed: {exc}"
            ) from None

    def recv(self) -> Dict[str, Any]:
        """Next frame from the server (blocking).

        Transport and framing failures surface as :class:`ServiceError`
        so callers (the CLI in particular) have one exception to catch.
        """
        while True:
            try:
                message = self._decoder.next_frame()
                if message is not None:
                    return message
                data = self._sock.recv(65536)
                if not data:
                    raise ServiceError(
                        "connection-closed",
                        "server closed the connection mid-stream",
                    )
                self._decoder.feed(data)
            except ProtocolError as exc:
                raise ServiceError(
                    exc.code, f"undecodable reply from "
                    f"{self.host}:{self.port}: {exc}",
                ) from None
            except socket.timeout:
                raise ServiceError(
                    "timeout",
                    f"no frame from {self.host}:{self.port} within "
                    f"{self.timeout}s",
                ) from None
            except OSError as exc:
                raise ServiceError(
                    "connection-lost", f"receive failed: {exc}"
                ) from None

    def poll(self) -> Optional[Dict[str, Any]]:
        """The next frame if it has already arrived, else None.

        Never waits for a frame the peer has not sent; a frame caught
        half-received is read to its end.
        """
        if (not self._decoder.pending_bytes()
                and not select.select([self._sock], [], [], 0)[0]):
            return None
        return self.recv()

    def abort(self) -> None:
        """Break a ``recv`` blocked in another thread: it fails at once
        instead of waiting out the read timeout."""
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _recv_checked(self) -> Dict[str, Any]:
        message = self.recv()
        if message.get("type") == "error":
            raise ServiceError(
                message.get("code", "error"),
                message.get("message", "unspecified server error"),
                detail=message.get("detail"),
            )
        return message

    # -- requests -----------------------------------------------------------

    def submit_iter(
        self,
        specs: Sequence[ScenarioSpec | Mapping[str, Any]],
        *,
        sweep: Optional[Mapping[str, Sequence[Any]]] = None,
        shard: Optional[Sequence[int]] = None,
        trace: Optional[Mapping[str, str]] = None,
    ) -> Iterator[ScenarioResult]:
        """Submit and yield each streamed result as it arrives.

        Raises :class:`ServiceError` on a structured rejection.  A
        ``busy`` rejection (the listener's ``--max-pending`` cap) is
        retried with jittered exponential backoff before giving up.
        After the iterator is exhausted, :attr:`last_done` holds the
        final ``done`` frame (counts, cancelled flag).  ``trace``
        threads an existing trace context through the submit so the
        server-side job span parents on the caller's span.
        """
        payload = [
            s.to_dict() if isinstance(s, ScenarioSpec) else dict(s)
            for s in specs
        ]
        submit = protocol.make_submit(
            payload, stream=True, sweep=sweep, shard=shard, trace=trace,
        )
        for attempt in range(self.busy_retries + 1):
            self.send(submit)
            try:
                ack = self._recv_checked()
                break
            except ServiceError as exc:
                if exc.code != "busy" or attempt >= self.busy_retries:
                    raise
                time.sleep(jittered_delay(
                    attempt, self.BUSY_BASE_DELAY_S, self.BUSY_MAX_DELAY_S
                ))
        if ack.get("type") != "ack":
            raise ServiceError(
                "protocol",
                f"expected ack, got {ack.get('type')!r}",
            )
        self.last_job = ack.get("job")
        yield from self._result_stream()

    def _result_stream(self) -> Iterator[ScenarioResult]:
        """Yield each ``result`` frame of the job being streamed; the
        closing ``done`` frame lands in :attr:`last_done`."""
        self.last_done = None
        while True:
            message = self._recv_checked()
            type_ = message.get("type")
            if type_ == "result":
                yield ScenarioResult.from_dict(message["result"])
            elif type_ == "done":
                self.last_done = message
                return
            elif type_ in ("ack", "pong"):
                continue  # reply to an interleaved cancel/ping
            else:
                raise ServiceError(
                    "protocol",
                    f"unexpected frame {type_!r} in result stream",
                )

    def submit(
        self,
        specs: Sequence[ScenarioSpec | Mapping[str, Any]],
        *,
        sweep: Optional[Mapping[str, Sequence[Any]]] = None,
        shard: Optional[Sequence[int]] = None,
        progress: Optional[Callable[[ScenarioResult], None]] = None,
        trace: Optional[Mapping[str, str]] = None,
    ) -> List[ScenarioResult]:
        """Submit and collect the full streamed result list."""
        results: List[ScenarioResult] = []
        for result in self.submit_iter(
            specs, sweep=sweep, shard=shard, trace=trace,
        ):
            results.append(result)
            if progress:
                progress(result)
        return results

    def stream_job(self, job: str) -> Iterator[ScenarioResult]:
        """Re-attach to a job by id: replay what it has, follow the tail.

        This is how a client collects a job that outlived its original
        connection — a coordinator restarted with ``--resume`` keeps
        the job id, so the same ``stream`` request drains the merged
        (journal-replayed + freshly executed) result list.
        """
        self.send(protocol.make_stream(job))
        self.last_job = job
        yield from self._result_stream()

    def status(self, job: Optional[str] = None) -> Dict[str, Any]:
        self.send(protocol.make_status(job))
        return self._recv_checked().get("jobs", {})

    def status_full(self, job: Optional[str] = None) -> Dict[str, Any]:
        """The whole ``status-reply`` frame: jobs + the listener's live
        telemetry (``metrics`` snapshot, ``cluster`` pool state when
        the peer is a coordinator)."""
        self.send(protocol.make_status(job))
        frame = self._recv_checked()
        return {
            "jobs": frame.get("jobs", {}),
            "metrics": frame.get("metrics"),
            "cluster": frame.get("cluster"),
        }

    def cancel(self, job: str) -> None:
        self.send(protocol.make_cancel(job))
        self._recv_checked()

    def ping(self) -> bool:
        self.send(protocol.make_ping())
        return self._recv_checked().get("type") == "pong"

    def shutdown(self) -> None:
        """Ask the server to stop (acknowledged with ``bye``)."""
        self.send(protocol.make_shutdown())
        try:
            self._recv_checked()
        except ServiceError as exc:
            if exc.code != "connection-closed":
                raise

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
