"""Cross-tier trace spans, emitted as ordinary bus events.

A *span* is one timed hop of a spec's journey through the platform:
the front accepts a job (``job``), leases a spec to a worker
(``lease``) — which, for a pool bridge, submits its batch to a whole
pool (``bridge``) where the same ``job`` and ``lease`` hops repeat —
and a worker executes it (``execute``).  Every span event carries the
same ``trace_id`` — minted once at submit time and threaded through
the wire protocol (``submit``/``lease`` frames grow an optional
``trace`` field) — plus its own span id and its parent's, so one
query over the event stream (``kind == "span"``, one trace id)
reconstructs the cross-tier critical path of any spec.

Deliberately not a tracing framework: no context propagation magic,
no sampling, no clocks beyond a duration the *emitter* measured.
Trace ids ride the frames whether or not anyone is listening (two
short strings per hop); span *emission* is gated on ``BUS.enabled``
like every other event, so the unobserved cost stays one attribute
load.
"""

from __future__ import annotations

import uuid
from typing import Any, Dict, Mapping, Optional

from repro.telemetry.events import BUS, Event

__all__ = [
    "SPAN_KIND",
    "new_trace_id",
    "new_span_id",
    "emit_span",
    "trace_context",
    "span_tree",
]

#: the event ``kind`` every span is emitted under.
SPAN_KIND = "span"


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (one per submitted job)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 8-hex-char span id (one per hop)."""
    return uuid.uuid4().hex[:8]


def trace_context(trace_id: str, span_id: str = "") -> Dict[str, str]:
    """The wire form of a trace: ``{"id": ..., "span": parent-span}``.

    Attached to ``submit`` and ``lease`` frames so the receiving tier
    can parent its own spans on the sender's.
    """
    context = {"id": str(trace_id)}
    if span_id:
        context["span"] = str(span_id)
    return context


def emit_span(
    component: str,
    name: str,
    *,
    trace_id: str,
    span_id: str,
    parent_id: str = "",
    job_id: str = "",
    spec_hash: str = "",
    duration_s: Optional[float] = None,
    bus=BUS,
    **payload: Any,
) -> Optional[Event]:
    """Publish one completed span as a ``kind="span"`` event.

    Spans are emitted once, at completion, with their measured
    duration — there is no open/close pair to correlate.  A no-op
    (like every emit) while the bus is unobserved.
    """
    if not bus.enabled or not trace_id:
        return None
    fields: Dict[str, Any] = {
        "name": name,
        "trace": str(trace_id),
        "span": str(span_id),
    }
    if parent_id:
        fields["parent"] = str(parent_id)
    if duration_s is not None:
        fields["duration_s"] = round(float(duration_s), 6)
    fields.update(payload)
    return bus.emit(component, SPAN_KIND, job_id=job_id,
                    spec_hash=spec_hash, **fields)


def span_tree(events) -> Dict[str, Dict[str, Any]]:
    """Index span events (dicts or :class:`Event`) by span id.

    Returns ``{span_id: {"parent": ..., "name": ..., "trace": ...,
    "children": [...], ...payload}}`` — the reconstruction helper the
    tests and ad-hoc analysis use to walk a critical path from any
    ``execute`` span back to its root ``job`` span.
    """
    spans: Dict[str, Dict[str, Any]] = {}
    for event in events:
        data = event.to_dict() if isinstance(event, Event) else dict(event)
        if data.get("kind") != SPAN_KIND:
            continue
        payload = dict(data.get("payload") or {})
        span_id = str(payload.get("span") or "")
        if not span_id:
            continue
        node = {
            "component": data.get("component", ""),
            "job_id": data.get("job_id", ""),
            "spec_hash": data.get("spec_hash", ""),
            "children": spans.get(span_id, {}).get("children", []),
            **payload,
        }
        spans[span_id] = node
    for span_id, node in spans.items():
        parent = node.get("parent")
        if parent and parent in spans:
            spans[parent].setdefault("children", [])
            if span_id not in spans[parent]["children"]:
                spans[parent]["children"].append(span_id)
    return spans
