"""Structured events on an in-process bus, plus stderr diagnostics.

An :class:`Event` is one timestamped fact about the platform — a job
started, a lease was requeued, a submit was rejected — carrying the
two correlation ids that stitch a distributed sweep back together:
the *job id* (assigned by the server/coordinator and riding the wire
protocol) and the *spec hash* (content-addressed identity of the unit
of work, stable across coordinator, worker and executor).

The bus is deliberately minimal: subscribers are plain callables, and
:meth:`EventBus.emit` returns immediately when nobody is subscribed —
one attribute load and a truth test — so instrumented code paths cost
nothing in the default (unobserved) configuration.  Subscription is
copy-on-write, so emitting never takes a lock.

:func:`diag` is the human-diagnostics channel: one line to *stderr*,
keeping stdout reserved for machine-readable output (reports, JSON).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

__all__ = [
    "Event",
    "EventBus",
    "JsonlSink",
    "BUS",
    "emit",
    "diag",
    "attach_jsonl_sink",
    "configure_from_env",
]

#: env var naming a JSONL file to trace every event into (the CLI
#: calls :func:`configure_from_env` at startup).
EVENTS_ENV = "REPRO_EVENTS"


@dataclass(frozen=True)
class Event:
    """One structured fact: who, what, when, and the correlation ids."""

    ts: float
    component: str            # e.g. "engine.executor", "cluster.worker"
    kind: str                 # e.g. "job-finish", "lease-requeue"
    job_id: str = ""
    spec_hash: str = ""
    payload: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "ts": self.ts,
            "component": self.component,
            "kind": self.kind,
        }
        if self.job_id:
            data["job_id"] = self.job_id
        if self.spec_hash:
            data["spec_hash"] = self.spec_hash
        if self.payload:
            data["payload"] = dict(self.payload)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Event":
        return cls(
            ts=float(data.get("ts", 0.0)),
            component=str(data.get("component", "")),
            kind=str(data.get("kind", "")),
            job_id=str(data.get("job_id", "")),
            spec_hash=str(data.get("spec_hash", "")),
            payload=dict(data.get("payload") or {}),
        )


Subscriber = Callable[[Event], None]


class EventBus:
    """Synchronous in-process pub/sub with a free unobserved path."""

    __slots__ = ("_subscribers", "_lock")

    def __init__(self) -> None:
        self._subscribers: tuple = ()
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """True when at least one subscriber would see an emit."""
        return bool(self._subscribers)

    def subscribe(self, fn: Subscriber) -> Subscriber:
        with self._lock:
            self._subscribers = self._subscribers + (fn,)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        # equality, not identity: bound methods (``seen.append``) are
        # rebuilt on every attribute access but compare equal
        with self._lock:
            self._subscribers = tuple(
                s for s in self._subscribers if s != fn
            )

    def emit(
        self,
        component: str,
        kind: str,
        *,
        job_id: str = "",
        spec_hash: str = "",
        **payload: Any,
    ) -> Optional[Event]:
        """Publish one event; a no-op (returning None) when unobserved."""
        subscribers = self._subscribers
        if not subscribers:
            return None
        event = Event(
            ts=time.time(),
            component=component,
            kind=kind,
            job_id=job_id,
            spec_hash=spec_hash,
            payload=payload,
        )
        for fn in subscribers:
            try:
                fn(event)
            except Exception:
                # a broken sink must never take down the host component
                pass
        return event


#: the process-global bus every instrumented component emits on.
BUS = EventBus()
emit = BUS.emit


class JsonlSink:
    """Append every event to a JSONL file (one object per line).

    Writes are serialized under a lock, so events emitted from the
    server's executor threads, the worker's heartbeat thread and the
    main thread interleave as whole lines; each line is flushed as it
    is written.
    """

    def __init__(self, path: str):
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def __call__(self, event: Event) -> None:
        line = json.dumps(event.to_dict(), default=str) + "\n"
        with self._lock:
            if self._file.closed:
                return
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()


def attach_jsonl_sink(path: str, bus: EventBus = BUS) -> JsonlSink:
    """Subscribe a :class:`JsonlSink` on *bus*; returns it for close()."""
    sink = JsonlSink(path)
    bus.subscribe(sink)
    return sink


#: the sink attached by :func:`configure_from_env`, keyed by path so
#: repeated CLI entry (tests calling ``main`` in-process) is idempotent.
_env_sink: Optional[JsonlSink] = None


def configure_from_env(bus: EventBus = BUS) -> Optional[JsonlSink]:
    """Attach a JSONL sink when ``REPRO_EVENTS`` names a path."""
    global _env_sink
    path = os.environ.get(EVENTS_ENV)
    if not path:
        return None
    if _env_sink is not None and _env_sink.path == str(path):
        return _env_sink
    _env_sink = attach_jsonl_sink(path, bus)
    return _env_sink


def diag(component: str, text: str) -> None:
    """One diagnostic line to stderr (stdout stays machine-readable)."""
    print(f"[{component}] {text}", file=sys.stderr, flush=True)
