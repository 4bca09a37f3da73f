"""The event bus: free when unobserved, fan-out when subscribed."""

import json
import threading

from repro.telemetry.events import (
    BUS,
    Event,
    EventBus,
    JsonlSink,
    attach_jsonl_sink,
)


class TestEventBus:
    def test_unobserved_emit_is_a_noop_returning_none(self):
        bus = EventBus()
        assert not bus.enabled
        assert bus.emit("c", "k", job_id="j", detail=1) is None

    def test_subscribed_emit_builds_and_delivers_the_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        assert bus.enabled
        event = bus.emit(
            "engine.executor", "job-finish",
            job_id="job-1", spec_hash="abc", status="ok",
        )
        assert seen == [event]
        assert event.component == "engine.executor"
        assert event.kind == "job-finish"
        assert event.job_id == "job-1" and event.spec_hash == "abc"
        assert event.payload == {"status": "ok"}
        assert event.ts > 0

    def test_unsubscribe_restores_the_free_path(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        assert not bus.enabled
        assert bus.emit("c", "k") is None
        assert seen == []

    def test_a_raising_subscriber_does_not_block_the_rest(self):
        bus = EventBus()
        seen = []

        def broken(event):
            raise RuntimeError("sink on fire")

        bus.subscribe(broken)
        bus.subscribe(seen.append)
        bus.emit("c", "k")
        assert len(seen) == 1

    def test_concurrent_subscribe_and_emit_is_safe(self):
        bus = EventBus()
        seen = []
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                fn = seen.append
                bus.subscribe(fn)
                bus.unsubscribe(fn)

        thread = threading.Thread(target=churn, daemon=True)
        thread.start()
        for _ in range(500):
            bus.emit("c", "k")
        stop.set()
        thread.join(timeout=5)

    def test_global_bus_exists_and_starts_unobserved_by_others(self):
        # other tests must leave the global BUS clean
        marker = []
        BUS.subscribe(marker.append)
        try:
            BUS.emit("t", "probe")
            assert len(marker) == 1
        finally:
            BUS.unsubscribe(marker.append)


class TestEventSerialization:
    def test_to_dict_omits_empty_correlation_ids(self):
        event = Event(ts=1.5, component="c", kind="k")
        assert event.to_dict() == {"ts": 1.5, "component": "c", "kind": "k"}

    def test_round_trip(self):
        event = Event(
            ts=2.0, component="cluster.worker", kind="lease-done",
            job_id="j", spec_hash="h", payload={"status": "ok"},
        )
        assert Event.from_dict(event.to_dict()) == event


class TestJsonlSink:
    def test_sink_appends_one_json_object_per_event(self, tmp_path):
        bus = EventBus()
        path = tmp_path / "events.jsonl"
        sink = attach_jsonl_sink(str(path), bus)
        try:
            bus.emit("a", "one", job_id="j1")
            bus.emit("b", "two", spec_hash="h2", n=3)
        finally:
            sink.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines() if line
        ]
        assert [ln["kind"] for ln in lines] == ["one", "two"]
        assert lines[0]["job_id"] == "j1"
        assert lines[1]["payload"] == {"n": 3}

    def test_closed_sink_swallows_writes(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "ev.jsonl"))
        sink.close()
        sink(Event(ts=1.0, component="c", kind="k"))  # must not raise

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "ev.jsonl"))
        sink.close()
        sink.close()

    def test_reopening_a_path_appends_to_it(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        for kind in ("first", "second"):
            sink = JsonlSink(str(path))
            sink(Event(ts=1.0, component="c", kind=kind))
            sink.close()
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert kinds == ["first", "second"]

    def test_missing_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "deep" / "er" / "ev.jsonl"
        sink = JsonlSink(str(path))
        try:
            sink(Event(ts=1.0, component="c", kind="k"))
        finally:
            sink.close()
        assert len(path.read_text().splitlines()) == 1

    def test_concurrent_emitters_write_whole_lines(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        bus = EventBus()
        sink = attach_jsonl_sink(str(path), bus)

        def emit_many(thread):
            for i in range(200):
                bus.emit("c", "k", job_id=f"t{thread}", i=i, pad="x" * 64)

        threads = [threading.Thread(target=emit_many, args=(t,))
                   for t in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 800
        for thread in range(4):
            mine = [ln["payload"]["i"] for ln in lines
                    if ln["job_id"] == f"t{thread}"]
            assert mine == list(range(200))

    def test_an_unsubscribed_sink_stops_receiving(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        bus = EventBus()
        sink = attach_jsonl_sink(str(path), bus)
        try:
            bus.emit("c", "kept")
            bus.unsubscribe(sink)
            bus.emit("c", "dropped")
        finally:
            sink.close()
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert kinds == ["kept"]

    def test_configure_from_env_is_idempotent(self, tmp_path, monkeypatch):
        from repro.telemetry import events as events_mod

        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(events_mod.EVENTS_ENV, str(path))
        monkeypatch.setattr(events_mod, "_env_sink", None)
        bus = EventBus()
        first = events_mod.configure_from_env(bus)
        second = events_mod.configure_from_env(bus)
        try:
            assert first is second is not None
            bus.emit("c", "k")
            assert len(path.read_text().splitlines()) == 1
        finally:
            first.close()
            monkeypatch.setattr(events_mod, "_env_sink", None)


class TestJsonlFlushPolicy:
    def test_default_flushes_every_event(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        sink = JsonlSink(str(path))
        try:
            sink(Event(ts=1.0, component="c", kind="k"))
            # visible without close: the historical durability contract
            assert len(path.read_text().splitlines()) == 1
        finally:
            sink.close()
