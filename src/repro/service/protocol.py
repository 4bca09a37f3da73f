"""Versioned JSON-lines wire protocol for the scenario service.

One frame is one newline-terminated JSON object — the framing the
related actor systems (message-broker SCADA, DSOC's own message-over-
NoC transport) converge on: trivially debuggable with ``nc``, trivially
streamable, and resynchronizable after a bad frame.  Every message
carries the protocol version (``"v"``) and a ``"type"``; requests flow
client → server (``submit``, ``status``, ``stream``, ``cancel``,
``shutdown``, ``ping``) and responses flow back (``ack``, ``result``,
``done``, ``status-reply``, ``error``, ``pong``, ``bye``).

Cluster workers speak the same framing in the other direction: a
worker opens a connection to the coordinator and sends ``register``,
``heartbeat``, ``lease-result`` and (when draining gracefully)
``release`` frames; the coordinator pushes ``registered`` and
``lease`` frames back down the same connection.  A pool bridge — a
worker that forwards its leases to a whole peer coordinator pool — is
one more worker: its ``register`` frame names that pool.
When a listener is started with a shared-secret auth token, every
inbound request frame must carry a matching ``"token"`` field;
:func:`check_token` is the (timing-safe) gate.

Everything here is pure bytes/dict transformation — no sockets — so
the framing edge cases (partial frames, oversized payloads, garbage
lines, unknown types, missing tokens) are unit-testable without a
server.
"""

from __future__ import annotations

import hmac
import json
from typing import Any, Dict, Mapping, Optional, Sequence

PROTOCOL_VERSION = 1

#: hard ceiling on one frame; a result frame for the biggest sweep row
#: set is ~1 MiB, so 8 MiB leaves generous headroom while still
#: rejecting a runaway (or hostile) payload before it is buffered.
MAX_FRAME_BYTES = 8 * 1024 * 1024

REQUEST_TYPES = frozenset(
    {"submit", "status", "stream", "cancel", "shutdown", "ping"}
)
#: frames a cluster worker sends its coordinator (same direction as
#: client requests: inbound on the listener).
WORKER_REQUEST_TYPES = frozenset(
    {"register", "heartbeat", "lease-result", "release"}
)
RESPONSE_TYPES = frozenset(
    {"ack", "result", "done", "status-reply", "error", "pong", "bye",
     "registered", "lease"}
)


class ProtocolError(Exception):
    """A malformed frame or message.

    ``fatal`` marks errors the connection cannot recover from (an
    oversized frame may still be in flight, so the stream position is
    lost); non-fatal errors consume exactly one line and the decoder
    resynchronizes on the next newline.
    """

    def __init__(self, code: str, message: str, fatal: bool = False):
        super().__init__(message)
        self.code = code
        self.fatal = fatal


# -- frame codec ------------------------------------------------------------


def encode_frame(message: Mapping[str, Any]) -> bytes:
    """Serialize one message to a newline-terminated JSON frame."""
    data = json.dumps(dict(message), separators=(",", ":"),
                      default=str).encode()
    if len(data) + 1 > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame-too-large",
            f"outgoing frame of {len(data)} bytes exceeds "
            f"{MAX_FRAME_BYTES}",
            fatal=True,
        )
    return data + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one frame line into a message dict (version-checked)."""
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:  # or nested too deep
        raise ProtocolError("bad-json", f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            "bad-frame",
            f"frame must be a JSON object, got {type(message).__name__}",
        )
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "version-mismatch",
            f"protocol version {version!r} unsupported "
            f"(speaking v{PROTOCOL_VERSION})",
        )
    if not isinstance(message.get("type"), str):
        raise ProtocolError("bad-frame", "frame is missing a 'type' string")
    return message


class FrameDecoder:
    """Incremental newline-frame decoder over an arbitrary byte stream.

    Feed raw chunks with :meth:`feed`; pull complete messages with
    :meth:`next_frame`, which returns ``None`` when no full line is
    buffered yet.  A bad line raises :class:`ProtocolError` *after*
    consuming that line, so the caller can report it and keep decoding.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)
        if (
            len(self._buffer) > self.max_frame_bytes
            and b"\n" not in self._buffer
        ):
            self._buffer.clear()
            raise ProtocolError(
                "frame-too-large",
                f"frame exceeds {self.max_frame_bytes} bytes "
                "without a terminator",
                fatal=True,
            )

    def next_frame(self) -> Optional[Dict[str, Any]]:
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                return None
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            if len(line) > self.max_frame_bytes:
                raise ProtocolError(
                    "frame-too-large",
                    f"frame of {len(line)} bytes exceeds "
                    f"{self.max_frame_bytes}",
                    fatal=True,
                )
            if line.strip():  # skip blank keep-alive lines
                return decode_frame(line)

    def pending_bytes(self) -> int:
        return len(self._buffer)


# -- message constructors ---------------------------------------------------


def _message(type_: str, **fields: Any) -> Dict[str, Any]:
    message = {"v": PROTOCOL_VERSION, "type": type_}
    message.update({k: v for k, v in fields.items() if v is not None})
    return message


def make_submit(
    specs: Sequence[Mapping[str, Any]],
    *,
    stream: bool = True,
    sweep: Optional[Mapping[str, Sequence[Any]]] = None,
    shard: Optional[Sequence[int]] = None,
    trace: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """A job submission: specs (+ optional sweep expansion / sharding).

    ``sweep`` fans every spec out over the cross product of the given
    param axes (server-side ``spec.with_params``); ``shard=(i, N)``
    keeps only shard i of the expansion (the offline ``--shard i/N``
    semantics, applied server-side).

    ``trace`` (``{"id": trace-id, "span": parent-span-id}``) threads
    an existing trace through the submit so the receiving server's
    job span parents on the caller's — how a pool bridge links a
    pool-side job back to the front-side lease.
    """
    return _message(
        "submit",
        specs=[dict(s) for s in specs],
        stream=bool(stream),
        sweep={k: list(v) for k, v in sweep.items()} if sweep else None,
        shard=list(shard) if shard is not None else None,
        trace=dict(trace) if trace else None,
    )


def make_status(job: Optional[str] = None) -> Dict[str, Any]:
    return _message("status", job=job)


def make_stream(job: str) -> Dict[str, Any]:
    return _message("stream", job=job)


def make_cancel(job: str) -> Dict[str, Any]:
    return _message("cancel", job=job)


def make_shutdown() -> Dict[str, Any]:
    return _message("shutdown")


def make_ping() -> Dict[str, Any]:
    return _message("ping")


def make_ack(job: str, specs: int) -> Dict[str, Any]:
    return _message("ack", job=job, specs=specs)


def make_result(job: str, seq: int, result: Mapping[str, Any]) -> Dict[str, Any]:
    return _message("result", job=job, seq=seq, result=dict(result))


def make_done(
    job: str,
    *,
    total: int,
    executed: int,
    cached: int,
    failed: int,
    cancelled: bool = False,
) -> Dict[str, Any]:
    return _message(
        "done",
        job=job,
        total=total,
        executed=executed,
        cached=cached,
        failed=failed,
        cancelled=cancelled,
    )


def make_status_reply(
    jobs: Mapping[str, Mapping[str, Any]],
    *,
    metrics: Optional[Mapping[str, Any]] = None,
    cluster: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Job states plus the listener's live telemetry.

    ``metrics`` is the process :class:`~repro.telemetry.metrics.
    MetricsRegistry` snapshot; ``cluster`` is the coordinator pool's
    worker/queue status (absent on a plain server).  Both are omitted
    when None so old clients see exactly the old frame.
    """
    return _message(
        "status-reply",
        jobs={k: dict(v) for k, v in jobs.items()},
        metrics=dict(metrics) if metrics is not None else None,
        cluster=dict(cluster) if cluster is not None else None,
    )


def make_error(
    code: str,
    message: str,
    *,
    job: Optional[str] = None,
    detail: Optional[Any] = None,
) -> Dict[str, Any]:
    return _message("error", code=code, message=message, job=job,
                    detail=detail)


def make_pong() -> Dict[str, Any]:
    return _message("pong")


def make_bye() -> Dict[str, Any]:
    return _message("bye")


# -- cluster worker frames --------------------------------------------------


def make_register(name: str, capacity: int = 1,
                  pool: Optional[str] = None) -> Dict[str, Any]:
    """A worker announcing itself to the coordinator.

    ``capacity`` is the number of leases the worker wants outstanding
    at once (execution itself stays serial per worker; capacity > 1
    only prefetches the next spec while one runs).  ``pool`` is the
    ``HOST:PORT`` of the coordinator pool a bridge forwards its leases
    to; a local worker leaves it out.
    """
    return _message("register", name=name, capacity=int(capacity),
                    pool=pool)


def make_registered(
    worker: str, heartbeat_s: float, lease_timeout_s: float
) -> Dict[str, Any]:
    """Coordinator's reply: the worker id and the liveness contract."""
    return _message(
        "registered",
        worker=worker,
        heartbeat_s=heartbeat_s,
        lease_timeout_s=lease_timeout_s,
    )


def make_lease(
    lease: str, spec: Mapping[str, Any], job: Optional[str] = None,
    trace: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """One unit of leased work: a single spec, not an ``i/N`` shard.

    ``job`` is the submitting job's id — the correlation id that lets
    a worker's events/logs be traced back to the coordinator-side
    sweep they belong to.  ``trace`` carries the job's trace id and
    the lease span's id so the worker's ``execute`` span parents on
    the coordinator's ``lease`` span.
    """
    return _message("lease", lease=lease, spec=dict(spec), job=job or None,
                    trace=dict(trace) if trace else None)


def make_lease_result(lease: str, result: Mapping[str, Any]) -> Dict[str, Any]:
    return _message("lease-result", lease=lease, result=dict(result))


def make_heartbeat(worker: Optional[str] = None) -> Dict[str, Any]:
    """Worker liveness pulse; renews every lease the worker holds."""
    return _message("heartbeat", worker=worker)


def make_release(
    leases: Sequence[str], worker: Optional[str] = None
) -> Dict[str, Any]:
    """A draining worker handing unstarted leases straight back.

    The graceful counterpart to a connection drop: the coordinator
    requeues the named leases immediately instead of waiting for the
    lease timeout to expire them.
    """
    return _message("release", leases=[str(x) for x in leases],
                    worker=worker)


# -- shared-secret auth -----------------------------------------------------


def attach_token(message: Dict[str, Any],
                 token: Optional[str]) -> Dict[str, Any]:
    """Stamp an outgoing request with the shared secret (no-op if None)."""
    if token:
        message["token"] = token
    return message


def check_token(message: Mapping[str, Any], token: Optional[str]) -> None:
    """Gate an inbound frame against the listener's shared secret.

    Raises a non-fatal :class:`ProtocolError` (code ``unauthorized``)
    when the listener requires a token and the frame's is missing or
    wrong; the comparison is timing-safe.  With no listener token every
    frame passes.
    """
    if token is None:
        return
    presented = message.get("token")
    if not isinstance(presented, str) or not hmac.compare_digest(
        presented.encode(), token.encode()
    ):
        raise ProtocolError(
            "unauthorized",
            "frame rejected: this listener requires a valid auth token "
            "(--auth-token / REPRO_AUTH_TOKEN)",
        )


# -- request validation -----------------------------------------------------


def validate_request(message: Mapping[str, Any]) -> str:
    """Check a decoded frame is a well-formed request; returns its type."""
    type_ = message.get("type")
    if type_ not in REQUEST_TYPES and type_ not in WORKER_REQUEST_TYPES:
        known = sorted(REQUEST_TYPES | WORKER_REQUEST_TYPES)
        raise ProtocolError(
            "unknown-type",
            f"unknown request type {type_!r}; expected one of {known}",
        )
    if type_ == "submit":
        specs = message.get("specs")
        if not isinstance(specs, list) or not specs:
            raise ProtocolError(
                "bad-message", "submit needs a non-empty 'specs' list"
            )
        if not all(isinstance(s, dict) for s in specs):
            raise ProtocolError(
                "bad-message", "every submitted spec must be an object"
            )
        sweep = message.get("sweep")
        if sweep is not None and (
            not isinstance(sweep, dict)
            or not all(isinstance(v, list) and v for v in sweep.values())
        ):
            raise ProtocolError(
                "bad-message",
                "'sweep' must map param names to non-empty value lists",
            )
        shard = message.get("shard")
        if shard is not None and (
            not isinstance(shard, list)
            or len(shard) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in shard)
        ):
            raise ProtocolError("bad-message", "'shard' must be [index, "
                                "total]")
        trace = message.get("trace")
        if trace is not None and (
            not isinstance(trace, dict)
            or not isinstance(trace.get("id"), str)
            or not all(isinstance(v, str) for v in trace.values())
        ):
            raise ProtocolError(
                "bad-message",
                "'trace' must be an object of strings with an 'id'",
            )
    elif type_ in ("stream", "cancel"):
        if not isinstance(message.get("job"), str):
            raise ProtocolError(
                "bad-message", f"{type_} needs a 'job' id string"
            )
    elif type_ == "status":
        job = message.get("job")
        if job is not None and not isinstance(job, str):
            raise ProtocolError(
                "bad-message", "status 'job' must be a string when given"
            )
    elif type_ == "register":
        if not isinstance(message.get("name"), str):
            raise ProtocolError(
                "bad-message", "register needs a worker 'name' string"
            )
        capacity = message.get("capacity", 1)
        if (not isinstance(capacity, int) or isinstance(capacity, bool)
                or capacity < 1):
            raise ProtocolError(
                "bad-message", "register 'capacity' must be a positive "
                "integer"
            )
        pool = message.get("pool")
        if pool is not None:
            host, _colon, port = (pool.rpartition(":")
                                  if isinstance(pool, str) else ("", "", ""))
            if not (host and port.isdigit() and 1 <= int(port) <= 65535):
                raise ProtocolError(
                    "bad-message", "register 'pool' must be a HOST:PORT "
                    "string when given"
                )
    elif type_ == "lease-result":
        if not isinstance(message.get("lease"), str):
            raise ProtocolError(
                "bad-message", "lease-result needs a 'lease' id string"
            )
        if not isinstance(message.get("result"), dict):
            raise ProtocolError(
                "bad-message", "lease-result needs a 'result' object"
            )
    elif type_ == "release":
        leases = message.get("leases")
        if not isinstance(leases, list) or not all(
            isinstance(x, str) for x in leases
        ):
            raise ProtocolError(
                "bad-message", "release needs a 'leases' list of id "
                "strings"
            )
    return type_


#: structured error codes the server emits (documented in
#: docs/service.md; tests assert on them).
ERROR_CODES = frozenset(
    {
        "bad-json",
        "bad-frame",
        "bad-message",
        "bad-spec",
        "unknown-scenario",
        "unknown-type",
        "unknown-job",
        "version-mismatch",
        "frame-too-large",
        "server-error",
        "shutting-down",
        "unauthorized",   # auth token missing/wrong on a guarded listener
        "busy",           # pending-spec queue at --max-pending capacity
        "unsupported",    # worker frame sent to a plain (non-pool) server
        "unknown-worker", # heartbeat/lease-result from an unregistered peer
    }
)

