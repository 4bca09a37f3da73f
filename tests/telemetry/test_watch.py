"""Live event fan-out: bounded subscribers, hub lifecycle, the wire.

The contract under test (the issue's satellite c + acceptance bar):
a slow or dead watcher never backpressures the emitter — its bounded
queue drops the *oldest* event, the drop is counted and surfaced in
``status`` — and an unobserved bus keeps its one-attribute-load fast
path because the hub attaches to the bus only while watched.  The
acceptance test runs three concurrent watchers over a real federated
sweep and kills one mid-stream.
"""

import asyncio
import contextlib
import json
import socket
import threading
import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.federation import FederatedCoordinator
from repro.cluster.worker import BackgroundWorker
from repro.engine.registry import scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.backend import LocalBackend
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import BackgroundServer
from repro.service.watch import MAX_QUEUE, WatchHub, WatchSubscriber
from repro.telemetry.events import BUS, Event, EventBus


def _event(kind="k", component="c", job_id="", **payload):
    return Event(ts=1.0, component=component, kind=kind,
                 job_id=job_id, payload=payload)


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


class TestWatchSubscriber:
    def test_filters_by_kind_component_and_job(self, loop):
        sub = WatchSubscriber(loop, kinds={"a", "b"},
                              components={"svc"}, job_id="j1")
        assert sub.matches(_event("a", "svc", "j1"))
        assert not sub.matches(_event("c", "svc", "j1"))
        assert not sub.matches(_event("a", "other", "j1"))
        assert not sub.matches(_event("a", "svc", "j2"))
        # no filters at all: everything matches
        assert WatchSubscriber(loop).matches(_event("z", "x", "j9"))

    def test_full_queue_drops_oldest_and_counts(self, loop):
        sub = WatchSubscriber(loop, maxlen=3)
        for i in range(7):
            sub.push(_event("k", i=i))
        assert sub.dropped == 4
        kept = [e.payload["i"] for e in sub.drain()]
        assert kept == [4, 5, 6]  # latest-wins: the oldest went first
        assert sub.delivered == 3

    def test_status_only_overflow_is_not_counted_as_loss(self, loop):
        sub = WatchSubscriber(loop, maxlen=1, count_drops=False)
        for _ in range(5):
            sub.push(_event())
        assert sub.dropped == 0  # a dirty flag, not a data stream
        assert len(sub.drain()) == 1

    def test_push_never_blocks_even_with_no_consumer(self, loop):
        sub = WatchSubscriber(loop, maxlen=2)
        started = time.monotonic()
        for _ in range(10_000):
            sub.push(_event())
        assert time.monotonic() - started < 2.0
        assert sub.dropped == 9_998

    def test_closed_subscriber_ignores_pushes(self, loop):
        sub = WatchSubscriber(loop, maxlen=4)
        sub.push(_event())
        sub.close()
        sub.push(_event())
        assert sub.drain() == []
        assert sub.dropped == 0

    def test_requested_queue_is_clamped(self, loop):
        assert WatchSubscriber(loop, maxlen=0).maxlen == 1
        assert WatchSubscriber(loop, maxlen=10 ** 9).maxlen == MAX_QUEUE

    def test_push_from_thread_wakes_the_owning_task(self):
        async def scenario():
            sub = WatchSubscriber(asyncio.get_running_loop())
            thread = threading.Thread(
                target=lambda: sub.push(_event("ping")), daemon=True
            )
            thread.start()
            assert await sub.wait(timeout=5.0)
            thread.join(timeout=5)
            return [e.kind for e in sub.drain()]

        assert asyncio.run(scenario()) == ["ping"]

    def test_wait_times_out_quietly(self):
        async def scenario():
            sub = WatchSubscriber(asyncio.get_running_loop())
            return await sub.wait(timeout=0.01)

        assert asyncio.run(scenario()) is False


class TestWatchHub:
    def test_attaches_to_bus_only_while_watched(self, loop):
        bus = EventBus()
        hub = WatchHub(bus)
        assert not bus.enabled          # nothing watching: free emit
        first = hub.add(loop)
        assert bus.enabled and hub.active
        second = hub.add(loop)
        hub.remove(first)
        assert bus.enabled              # one watcher left
        hub.remove(second)
        assert not bus.enabled          # fast path restored
        assert not hub.active

    def test_fan_out_honors_each_subscribers_filter(self, loop):
        bus = EventBus()
        hub = WatchHub(bus)
        everything = hub.add(loop)
        only_a = hub.add(loop, kinds={"a"})
        bus.emit("c", "a")
        bus.emit("c", "b")
        hub_events = [e.kind for e in everything.drain()]
        assert hub_events == ["a", "b"]
        assert [e.kind for e in only_a.drain()] == ["a"]
        hub.close()

    def test_dropped_total_survives_watcher_churn(self, loop):
        bus = EventBus()
        hub = WatchHub(bus)
        sub = hub.add(loop, maxlen=1)
        for _ in range(4):
            bus.emit("c", "k")
        assert sub.dropped == 3
        hub.remove(sub)                 # watcher goes away...
        status = hub.status()
        assert status["watchers"] == 0
        assert status["dropped_total"] == 3  # ...its drops do not

    def test_status_lists_per_subscriber_counters(self, loop):
        bus = EventBus()
        hub = WatchHub(bus)
        sub = hub.add(loop, kinds={"x"}, job_id="j1", maxlen=8)
        bus.emit("c", "x", job_id="j1")
        status = hub.status()["subscribers"][sub.id]
        assert status["kinds"] == ["x"]
        assert status["job"] == "j1"
        assert status["queue"] == 8
        assert status["queued"] == 1
        hub.close()
        assert not bus.enabled


@pytest.fixture(scope="module", autouse=True)
def watch_scenarios():
    @scenario("_watch_fast", params={"n": 2})
    def _fast(n=2):
        return {"rows": [{"i": i} for i in range(n)],
                "verdict": {"ok": True}}

    yield
    unregister("_watch_fast")


@pytest.fixture
def server():
    with BackgroundServer(LocalBackend(backend="serial")) as bg:
        yield bg


class TestWatchFrame:
    def test_watch_streams_filtered_live_events(self, server):
        seen = []
        done = threading.Event()

        def watcher():
            with ServiceClient(server.host, server.port,
                               timeout=30) as c:
                for event in c.watch_events(kinds=["submit",
                                                   "job-done"]):
                    seen.append(event)
                    if event["kind"] == "job-done":
                        done.set()
                        return

        thread = threading.Thread(target=watcher, daemon=True)
        thread.start()
        # the watcher must be subscribed before the job is submitted
        deadline = time.monotonic() + 10
        while not server.server.watch_hub.active:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with ServiceClient(server.host, server.port, timeout=30) as c:
            c.submit([ScenarioSpec("_watch_fast")])
        assert done.wait(timeout=15)
        thread.join(timeout=10)
        kinds = [e["kind"] for e in seen]
        assert kinds == ["submit", "job-done"]   # filter held
        assert seen[0]["job_id"] == seen[1]["job_id"]

    def test_status_surfaces_watchers_and_their_drop_counters(
        self, server
    ):
        with ServiceClient(server.host, server.port, timeout=30) as w:
            w.send(protocol.make_watch(kinds=["_never"]))
            ack = w._recv_checked()
            assert ack["type"] == "watch-ack"
            sub = server.server.watch_hub._subs[0]
            sub.dropped = 7  # as if a burst outran this watcher
            with ServiceClient(server.host, server.port,
                               timeout=30) as c:
                status = c.status_full()
        watchers = status["watchers"]
        assert watchers["watchers"] >= 1
        assert watchers["dropped_total"] >= 7
        assert watchers["subscribers"][sub.id]["dropped"] == 7

    def test_unwatched_status_omits_the_watchers_block(self, server):
        with ServiceClient(server.host, server.port, timeout=30) as c:
            status = c.status_full()
        assert "watchers" not in status

    def test_dead_watcher_never_blocks_submissions(self, server):
        drop = socket.create_connection((server.host, server.port),
                                        timeout=10)
        drop.sendall(protocol.encode_frame(protocol.make_watch()))
        reader = drop.makefile("rb")
        assert json.loads(reader.readline())["type"] == "watch-ack"
        reader.close()  # the makefile dup would keep the fd alive
        drop.close()    # the watcher dies without unsubscribing
        with ServiceClient(server.host, server.port, timeout=30) as c:
            results = c.submit([ScenarioSpec("_watch_fast")])
            assert results[0].ok
        # the server noticed and detached the orphaned subscription
        deadline = time.monotonic() + 10
        while server.server.watch_hub.active:
            assert time.monotonic() < deadline
            time.sleep(0.01)

    def test_watch_status_pushes_snapshots(self, server):
        snapshots = []

        def watcher():
            with ServiceClient(server.host, server.port,
                               timeout=30) as c:
                for snap in c.watch_status(0.05):
                    snapshots.append(snap)
                    if any(j["state"] == "done"
                           for j in snap["jobs"].values()):
                        return
                    if len(snapshots) > 100:
                        return  # give up; the asserts will say why

        thread = threading.Thread(target=watcher, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while not server.server.watch_hub.active:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with ServiceClient(server.host, server.port, timeout=30) as c:
            c.submit([ScenarioSpec("_watch_fast")])
        thread.join(timeout=15)
        # first frame is the immediate (empty) snapshot; the pushes
        # after it only exist because the submit dirtied the status
        assert len(snapshots) >= 2
        assert {"jobs", "metrics", "cluster"} <= set(snapshots[-1])
        assert any(j["state"] == "done"
                   for j in snapshots[-1]["jobs"].values())

    def test_watch_frame_validation_rejects_nonsense(self, server):
        bad = protocol.encode_frame({
            "v": protocol.PROTOCOL_VERSION, "type": "watch",
            "events": False,
        })
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(bad)
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["type"] == "error"
        assert reply["code"] == "bad-message"


SLOW_S = 0.05
FED_AXES = {"k": [1, 2, 3, 4, 5, 6]}
FED_KW = dict(chunk_specs=2)


@contextlib.contextmanager
def _pool(workers=1):
    coordinator = ClusterCoordinator(port=0, lease_timeout_s=5.0)
    with BackgroundServer(server=coordinator) as bg:
        fleet = []
        try:
            for index in range(workers):
                fleet.append(
                    BackgroundWorker(bg.host, bg.port,
                                     name=f"ww{index}").start()
                )
            yield bg
        finally:
            for worker in fleet:
                worker.stop()


@pytest.fixture(scope="module", autouse=True)
def federation_scenarios():
    @scenario("_watch_fed", params={"k": 1, "delay": SLOW_S})
    def _fed(k=1, delay=SLOW_S):
        time.sleep(delay)
        return {"rows": [{"k": k}], "verdict": {"ok": True}}

    yield
    unregister("_watch_fed")


class TestFederatedWatchAcceptance:
    """Three live watchers over a federated sweep; one dies mid-stream."""

    BASE = ScenarioSpec("_watch_fed", {"k": 1, "delay": SLOW_S})
    TOTAL = len(FED_AXES["k"])

    def test_three_watchers_one_killed_mid_stream(self):
        with _pool() as bga, _pool() as bgb:
            addrs = [(bga.host, bga.port), (bgb.host, bgb.port)]
            front = FederatedCoordinator(port=0, pools=addrs, **FED_KW)
            with BackgroundServer(server=front) as bg:
                collected = {0: [], 1: []}
                finished = []
                victim_got_one = threading.Event()

                def survivor(index):
                    with ServiceClient(bg.host, bg.port,
                                       timeout=60) as c:
                        for ev in c.watch_events(
                            kinds=["pool-complete"]
                        ):
                            collected[index].append(ev["spec_hash"])
                            if len(collected[index]) == self.TOTAL:
                                finished.append(index)
                                return

                def victim():
                    client = ServiceClient(bg.host, bg.port,
                                           timeout=60)
                    try:
                        for _ev in client.watch_events(
                            kinds=["pool-complete"]
                        ):
                            victim_got_one.set()
                            client._sock.close()  # die mid-stream
                            return
                    except (ServiceError, OSError):
                        victim_got_one.set()

                threads = [
                    threading.Thread(target=survivor, args=(0,),
                                     daemon=True),
                    threading.Thread(target=survivor, args=(1,),
                                     daemon=True),
                    threading.Thread(target=victim, daemon=True),
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 10
                while (front.watch_hub.status()["watchers"] < 3
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert front.watch_hub.status()["watchers"] == 3

                with ServiceClient(bg.host, bg.port,
                                   timeout=120) as client:
                    results = client.submit([self.BASE],
                                            sweep=FED_AXES)
                    # the killed watcher never dented the sweep
                    assert client.last_done["failed"] == 0
                    assert len(results) == self.TOTAL
                assert victim_got_one.wait(timeout=30)
                for thread in threads:
                    thread.join(timeout=30)
                assert sorted(finished) == [0, 1]

                expected = {r.spec_hash for r in results}
                # each survivor saw the complete filtered sequence
                assert set(collected[0]) == expected
                assert set(collected[1]) == expected
                assert len(collected[0]) == self.TOTAL
                assert len(collected[1]) == self.TOTAL
