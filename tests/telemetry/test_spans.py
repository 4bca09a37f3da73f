"""Trace spans across the tiers: one trace id, one walkable path.

The contract: a spec submitted to a federated front can be traced
through every hop — front ``job`` → front ``lease`` → pool ``bridge``
→ pool ``job`` → pool ``lease`` → worker ``execute`` — by following
parent links between ``kind="span"`` events that all carry the same
trace id.  Emission is gated exactly like every other event: an unobserved
bus emits nothing, but the trace ids still ride the frames.
"""

import contextlib
import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.federation import FederatedCoordinator
from repro.cluster.worker import BackgroundWorker
from repro.engine.registry import scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer
from repro.telemetry.events import BUS, EventBus
from repro.telemetry.spans import (
    SPAN_KIND,
    emit_span,
    new_span_id,
    new_trace_id,
    span_tree,
    trace_context,
)

FED_KW = dict(chunk_specs=2)


class TestEmitSpan:
    def test_unobserved_bus_emits_nothing(self):
        bus = EventBus()
        assert emit_span("c", "job", trace_id="t1", span_id="s1",
                         bus=bus) is None

    def test_missing_trace_id_emits_nothing(self):
        bus = EventBus()
        bus.subscribe(lambda _e: None)
        assert emit_span("c", "job", trace_id="", span_id="s1",
                         bus=bus) is None

    def test_span_event_shape(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        event = emit_span(
            "cluster.worker", "execute", trace_id="t1", span_id="s2",
            parent_id="s1", job_id="j", spec_hash="h",
            duration_s=0.1234567, bus=bus, worker="w0", status="ok",
        )
        assert seen == [event]
        assert event.kind == SPAN_KIND
        assert event.payload == {
            "name": "execute", "trace": "t1", "span": "s2",
            "parent": "s1", "duration_s": 0.123457,
            "worker": "w0", "status": "ok",
        }

    def test_trace_context_wire_form(self):
        assert trace_context("t1") == {"id": "t1"}
        assert trace_context("t1", "s1") == {"id": "t1", "span": "s1"}
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8


class TestSpanTree:
    def test_tree_links_children_to_parents(self):
        events = [
            {"kind": "span", "component": "a", "job_id": "j",
             "payload": {"name": "job", "trace": "t", "span": "s1"}},
            {"kind": "span", "component": "b", "job_id": "j",
             "payload": {"name": "lease", "trace": "t", "span": "s2",
                         "parent": "s1"}},
            {"kind": "not-a-span", "payload": {"span": "s9"}},
        ]
        tree = span_tree(events)
        assert set(tree) == {"s1", "s2"}
        assert tree["s1"]["children"] == ["s2"]
        assert tree["s2"]["parent"] == "s1"
        assert tree["s2"]["component"] == "b"


@pytest.fixture(scope="module", autouse=True)
def span_scenarios():
    @scenario("_span_probe", params={"k": 1})
    def _probe(k=1):
        return {"rows": [{"k": k}], "verdict": {"ok": True}}

    yield
    unregister("_span_probe")


@contextlib.contextmanager
def recording_bus():
    """Capture every global-BUS event for the duration."""
    events = []
    BUS.subscribe(events.append)
    try:
        yield events
    finally:
        BUS.unsubscribe(events.append)


def spans_of(events, trace_id=None):
    spans = [e for e in events if e.kind == SPAN_KIND]
    if trace_id is not None:
        spans = [s for s in spans if s.payload["trace"] == trace_id]
    return spans


def wait_for_spans(events, names, trace_id=None, timeout=15.0):
    """Span emission trails the done frame; poll briefly for the set."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        got = {s.payload["name"] for s in spans_of(events, trace_id)}
        if names <= got:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"wanted spans {sorted(names)}, got {sorted(got)}"
    )


@contextlib.contextmanager
def _pool(workers=1):
    coordinator = ClusterCoordinator(port=0, lease_timeout_s=5.0)
    with BackgroundServer(server=coordinator) as bg:
        fleet = []
        try:
            for index in range(workers):
                fleet.append(
                    BackgroundWorker(bg.host, bg.port,
                                     name=f"sw{index}").start()
                )
            yield bg
        finally:
            for worker in fleet:
                worker.stop()


class TestClusterTrace:
    def test_job_lease_execute_share_one_trace(self):
        with recording_bus() as events:
            with _pool() as bg:
                with ServiceClient(bg.host, bg.port, timeout=60) as c:
                    results = c.submit([ScenarioSpec("_span_probe")])
                    assert results[0].ok
                wait_for_spans(events,
                               {"job", "lease", "execute"})
        spans = spans_of(events)
        by_name = {s.payload["name"]: s for s in spans}
        job, lease, execute = (by_name["job"], by_name["lease"],
                               by_name["execute"])
        # one trace end to end, parented hop by hop
        assert (job.payload["trace"] == lease.payload["trace"]
                == execute.payload["trace"])
        assert lease.payload["parent"] == job.payload["span"]
        assert execute.payload["parent"] == lease.payload["span"]
        assert job.component == "service.server"
        assert lease.component == "cluster.coordinator"
        assert execute.component == "cluster.worker"
        # every hop measured its own duration
        assert all(s.payload["duration_s"] >= 0 for s in spans)
        assert execute.spec_hash == results[0].spec_hash

    def test_client_supplied_trace_context_is_honored(self):
        with recording_bus() as events:
            with _pool() as bg:
                with ServiceClient(bg.host, bg.port, timeout=60) as c:
                    list(c.submit_iter(
                        [ScenarioSpec("_span_probe")],
                        trace={"id": "feedfacecafebeef", "span": "caller01"},
                    ))
                wait_for_spans(events, {"job"}, "feedfacecafebeef")
        (job,) = [s for s in spans_of(events, "feedfacecafebeef")
                  if s.payload["name"] == "job"]
        assert job.payload["parent"] == "caller01"

    def test_unobserved_bus_stays_silent_but_job_still_runs(self):
        with _pool() as bg:
            with ServiceClient(bg.host, bg.port, timeout=60) as c:
                results = c.submit([ScenarioSpec("_span_probe")])
        assert results[0].ok  # no subscriber, no spans, no harm


class TestFederatedTrace:
    def test_critical_path_walks_front_to_worker(self):
        base = ScenarioSpec("_span_probe", {"k": 1})
        with recording_bus() as events:
            with _pool() as bga:
                front = FederatedCoordinator(
                    port=0, pools=[(bga.host, bga.port)], **FED_KW
                )
                with BackgroundServer(server=front) as bg:
                    with ServiceClient(bg.host, bg.port,
                                       timeout=120) as c:
                        results = c.submit([base])
                        assert c.last_done["failed"] == 0
                    wait_for_spans(events, {"execute"})
                    trace_id = next(
                        s for s in spans_of(events)
                        if s.payload["name"] == "execute"
                    ).payload["trace"]

                    def critical_path():
                        """Parent chain from the worker's hop up."""
                        spans = spans_of(events, trace_id)
                        tree = span_tree(spans)
                        execute = next(s for s in spans
                                       if s.payload["name"] == "execute")
                        path = []
                        node = tree[execute.payload["span"]]
                        while True:
                            path.append((node["component"], node["name"]))
                            parent = node.get("parent")
                            if not parent or parent not in tree:
                                return path, node, execute
                            node = tree[parent]

                    # span emission trails the done frame
                    deadline = time.monotonic() + 15
                    while (len(critical_path()[0]) < 6
                           and time.monotonic() < deadline):
                        time.sleep(0.02)
        path, node, execute = critical_path()
        assert path == [
            ("cluster.worker", "execute"),
            ("cluster.coordinator", "lease"),
            ("service.server", "job"),        # the pool's own job
            ("cluster.federation", "bridge"),
            ("cluster.coordinator", "lease"),  # the front's lease
            ("service.server", "job"),        # the front's job
        ]
        # the root is the front's job span for the submitted job id
        assert path[-1] == ("service.server", "job")
        assert node["job_id"]
        assert results[0].spec_hash == execute.spec_hash
