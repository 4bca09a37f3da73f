"""Federated pools end-to-end: parity, failover, resume.

A federation front is an ordinary coordinator whose workers are pool
bridges, so every pool-level failure is a worker-level one: a pool
that dies or hangs mid-batch takes its bridge's connection with it
(the leases requeue, charged), a pool that comes back re-registers on
its own, a busy pool hands its leases back uncharged, and an operator
drain finishes the batch at the pool and releases the rest.  Each row
runs against real coordinator pools (plus a few scripted misbehaving
listeners) and ends in a merged report identical to the serial run.
"""

import asyncio
import contextlib
import json
import socket
import socketserver
import threading
import time

import pytest

from repro.cluster.chaos import ChaosMonkey
from repro.cluster.coordinator import ClusterCoordinator, ClusterPool
from repro.cluster.federation import FederatedCoordinator, PoolBridge
from repro.cluster.journal import JobJournal
from repro.cluster.worker import BackgroundWorker
from repro.engine.executor import execute, run_spec
from repro.engine.registry import scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer, Job
from repro.service.shard import expand_sweep
from repro.telemetry.metrics import METRICS

SLOW_S = 0.3
LEASE_TIMEOUT_S = 3.0
#: the front's lease timeout: a 1 s heartbeat, so a bridge pings its
#: pool every second and calls it dark after a 1 s silence
FRONT_LEASE_TIMEOUT_S = 4.0
AXES = {"k": [1, 2, 3, 4, 5, 6]}


@pytest.fixture(scope="module", autouse=True)
def federation_scenarios():
    @scenario("_fed_fast", params={"n": 2})
    def _fast(n=2):
        return {"rows": [{"i": i, "sq": i * i} for i in range(n)],
                "verdict": {"ok": True}}

    @scenario("_fed_slow", params={"k": 1, "delay": SLOW_S})
    def _slow(k=1, delay=SLOW_S):
        time.sleep(delay)
        return {"rows": [{"k": k, "cube": k ** 3}],
                "verdict": {"ok": True}}

    yield
    for name in ("_fed_fast", "_fed_slow"):
        unregister(name)


def wait_for(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached in time")


def counter(name):
    return METRICS.counter(name).value


def pools_of(listener):
    with ServiceClient(listener.host, listener.port, timeout=30) as client:
        return client.status_full()["cluster"].get("pools") or {}


def states(listener):
    return {name: p["breaker"]["state"]
            for name, p in pools_of(listener).items()}


@contextlib.contextmanager
def pool(workers=1, port=0):
    """One real coordinator pool with its workers."""
    coordinator = ClusterCoordinator(port=port,
                                     lease_timeout_s=LEASE_TIMEOUT_S)
    with BackgroundServer(server=coordinator) as bg:
        fleet = []
        try:
            for index in range(workers):
                fleet.append(
                    BackgroundWorker(bg.host, bg.port,
                                     name=f"pw{index}").start()
                )
            yield bg, coordinator, fleet
        finally:
            for worker in fleet:
                worker.stop()


@contextlib.contextmanager
def federation(pool_addrs, wait=True, **kwargs):
    kwargs.setdefault("chunk_specs", 3)
    kwargs.setdefault("lease_timeout_s", FRONT_LEASE_TIMEOUT_S)
    front = FederatedCoordinator(port=0, pools=pool_addrs, **kwargs)
    with BackgroundServer(server=front) as bg:
        if wait:
            wait_for(lambda: set(states(bg).values()) == {"closed"})
        yield bg, front


@contextlib.contextmanager
def bridge(front, pool_addr, **kwargs):
    """A runtime ``repro worker --pool`` bridge, on a thread."""
    kwargs.setdefault("reconnect_delay_s", 0.2)
    worker = PoolBridge(front.host, front.port, pool_addr, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        yield worker, thread
    finally:
        worker.stop()
        thread.join(timeout=10)


def address(bg):
    return f"{bg.host}:{bg.port}"


def payloads(results):
    return sorted(
        json.dumps(r.comparable_payload(), sort_keys=True) for r in results
    )


class ScriptedPool:
    """A listener that answers pings but misbehaves on ``submit``:
    ``hang`` stops answering anything, ``busy`` refuses with the busy
    code, ``drop`` closes the connection."""

    def __init__(self, on_submit):
        fake = self
        self.on_submit = on_submit
        self.submits = 0
        self.hung = threading.Event()
        self.closing = threading.Event()

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for line in self.rfile:
                    message = json.loads(line)
                    if fake.hung.is_set():
                        fake.closing.wait()
                        return
                    if message["type"] == "ping":
                        reply = protocol.make_pong()
                    elif message["type"] == "submit":
                        fake.submits += 1
                        if fake.on_submit == "drop":
                            return
                        if fake.on_submit == "hang":
                            fake.hung.set()
                            fake.closing.wait()
                            return
                        reply = protocol.make_error("busy", "queue full")
                    else:
                        continue
                    self.wfile.write(protocol.encode_frame(reply))

        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0),
                                                      Handler)
        self.server.daemon_threads = True
        self.host, self.port = self.server.server_address
        threading.Thread(target=self.server.serve_forever,
                         daemon=True).start()

    def close(self):
        self.closing.set()
        self.server.shutdown()
        self.server.server_close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class TestFederatedExecution:
    BASE = ScenarioSpec("_fed_slow", {"k": 1, "delay": 0.05})

    def test_two_pool_sweep_matches_serial(self):
        serial = execute(expand_sweep(self.BASE, AXES), backend="serial")
        with pool() as (bga, ca, _wa), pool() as (bgb, cb, _wb):
            addrs = [(bga.host, bga.port), (bgb.host, bgb.port)]
            with federation(addrs, chunk_specs=2) as (bg, front):
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    results = client.submit([self.BASE], sweep=AXES)
                    assert client.last_done["failed"] == 0
                status = front.pool.status()
        assert payloads(results) == payloads(serial)
        # both pools contributed, nothing left queued at the front
        assert ca.pool.total_completed > 0 and cb.pool.total_completed > 0
        assert status["completed"] == 6
        assert status["queued"] == 0 and status["inflight"] == 0

    def test_front_status_carries_federation_topology(self):
        with pool() as (bga, _ca, _wa):
            with federation([(bga.host, bga.port)]) as (bg, _front):
                with ServiceClient(bg.host, bg.port, timeout=30) as client:
                    cluster = client.status_full()["cluster"]
            with ServiceClient(bga.host, bga.port, timeout=30) as client:
                plain = client.status_full()["cluster"]
        assert cluster["federation"] is True
        (entry,) = cluster["pools"].values()
        assert entry["breaker"]["state"] == "closed"
        assert entry["pool"] == address(bga)
        # a coordinator with no bridges reports no federation block
        assert "federation" not in plain and "pools" not in plain


class TestFederationFrames:
    def test_register_health_rehome_round_trip(self):
        """Attach a pool at runtime, see it in status, drain it, and
        re-attach it — the worker spelling of the old admin frames."""
        with pool() as (bga, _ca, _wa), pool() as (bgb, _cb, _wb):
            with federation([(bga.host, bga.port)]) as (bg, _front):
                with bridge(bg, address(bgb), name="pool-b") as (b, thread):
                    wait_for(lambda: states(bg) == {
                        "pool-1": "closed", "pool-b": "closed"})
                    assert pools_of(bg)["pool-b"]["pool"] == address(bgb)
                    b.drain()
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                    assert states(bg)["pool-b"] == "open"
                with bridge(bg, address(bgb), name="pool-b"):
                    wait_for(lambda: states(bg)["pool-b"] == "closed")

    def test_plain_listener_rejects_fed_frames_structurally(self):
        from repro.service.backend import LocalBackend

        with BackgroundServer(LocalBackend(backend="serial")) as bg:
            with socket.create_connection((bg.host, bg.port),
                                          timeout=10) as sock:
                reader = sock.makefile("rb")
                replies = []
                for message in (
                    {"v": protocol.PROTOCOL_VERSION,
                     "type": "pool-register", "host": "h", "port": 1},
                    protocol.make_register("b", 4, pool="h:1"),
                    protocol.make_ping(),
                ):
                    sock.sendall(protocol.encode_frame(message))
                    replies.append(json.loads(reader.readline()))
        # the retired admin frame is an unknown type, a bridge needs a
        # coordinator, and the connection survives both refusals
        assert [r.get("code") for r in replies[:2]] == [
            "unknown-type", "unsupported"]
        assert replies[2]["type"] == "pong"


class TestPoolFailover:
    BASE = ScenarioSpec("_fed_slow", {"k": 1, "delay": SLOW_S})

    def test_killed_pool_mid_sweep_rehomes_to_survivor(self):
        serial = execute(expand_sweep(self.BASE, AXES), backend="serial")
        rehomed = counter("federation.rehomed")
        opens = counter("federation.breaker_opens")
        with pool() as (bga, _ca, wa), pool() as (bgb, _cb, _wb):
            addrs = [(bga.host, bga.port), (bgb.host, bgb.port)]
            with federation(addrs, chunk_specs=3) as (bg, front):
                with ServiceClient(bg.host, bg.port, timeout=120) as client:
                    results = []
                    for result in client.submit_iter([self.BASE],
                                                     sweep=AXES):
                        results.append(result)
                        if len(results) == 1:
                            # the whole pool goes dark: listener and
                            # its worker fleet, mid-batch
                            wa[0].kill()
                            bga.stop()
                    assert client.last_done["failed"] == 0
                    assert not client.last_done["cancelled"]
                status = front.pool.status()
                pools = states(bg)
        assert payloads(results) == payloads(serial)
        # the dead pool's leases were requeued, not lost and not failed
        assert status["requeued"] >= 1
        assert status["quarantined"] == 0
        assert counter("federation.rehomed") > rehomed
        assert counter("federation.breaker_opens") > opens
        assert sorted(pools.values()) == ["closed", "open"]

    def test_hung_pool_is_declared_dark_at_the_next_ping(self):
        base = ScenarioSpec("_fed_slow", {"k": 1, "delay": 0.05})
        serial = execute(expand_sweep(base, AXES), backend="serial")
        opens = counter("federation.breaker_opens")
        with ScriptedPool("hang") as hung, pool() as (bgb, _cb, _wb):
            addrs = [(hung.host, hung.port), (bgb.host, bgb.port)]
            with federation(addrs, chunk_specs=2) as (bg, front):
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    results = client.submit([base], sweep=AXES)
                    assert client.last_done["failed"] == 0
                pools = states(bg)
                requeued = front.pool.status()["requeued"]
        assert payloads(results) == payloads(serial)
        # the hung pool really held a batch, which went back to the
        # front once the pool missed a ping
        assert hung.submits >= 1 and requeued >= 1
        assert counter("federation.breaker_opens") > opens
        assert pools == {"pool-1": "open", "pool-2": "closed"}

    def test_pool_coming_back_reregisters_without_an_operator(self):
        base = ScenarioSpec("_fed_slow", {"k": 1, "delay": 0.05})
        serial = execute(expand_sweep(base, AXES), backend="serial")
        with pool() as (bga, _ca, wa):
            port = bga.port
            with federation([(bga.host, port)]) as (bg, _front):
                wa[0].kill()
                bga.stop()
                wait_for(lambda: states(bg) == {"pool-1": "open"})
                with pool(port=port):
                    wait_for(lambda: states(bg) == {"pool-1": "closed"})
                    with ServiceClient(bg.host, bg.port,
                                       timeout=60) as client:
                        results = client.submit([base], sweep=AXES)
                        assert client.last_done["failed"] == 0
        assert payloads(results) == payloads(serial)

    def test_drained_bridge_finishes_its_batch_and_releases_the_rest(self):
        serial = execute(expand_sweep(self.BASE, AXES), backend="serial")
        with pool() as (bga, _ca, _wa), pool() as (bgb, _cb, _wb):
            # a bridge attaches to any coordinator, not only a front
            front = ClusterCoordinator(
                port=0, lease_timeout_s=FRONT_LEASE_TIMEOUT_S,
                max_spec_retries=0,
            )
            with BackgroundServer(server=front) as bg, \
                    contextlib.ExitStack() as stack:
                a, a_thread = stack.enter_context(
                    bridge(bg, address(bga), name="a", capacity=2))
                wait_for(lambda: states(bg) == {"a": "closed"})
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    results = []
                    for result in client.submit_iter([self.BASE],
                                                     sweep=AXES):
                        results.append(result)
                        if len(results) == 1:
                            a.drain()    # the SIGTERM path
                            # one lease at a time, so refills for A
                            # are still queued behind A's batch
                            stack.enter_context(bridge(
                                bg, address(bgb), name="b", capacity=1))
                    assert client.last_done["failed"] == 0
                a_thread.join(timeout=10)
                status = front.pool.status()
        assert payloads(results) == payloads(serial)
        assert not a_thread.is_alive()
        # the batch at pool A finished; what was queued behind it went
        # back uncharged (one charged requeue would have quarantined)
        assert a.executed >= 2
        assert status["released"] >= 1
        assert status["requeued"] == 0 and status["quarantined"] == 0

    def test_front_crash_then_resume_to_parity(self, tmp_path):
        serial = execute(expand_sweep(self.BASE, AXES), backend="serial")
        journal_path = tmp_path / "federation_journal.jsonl"
        with pool() as (bga, _ca, _wa), pool() as (bgb, _cb, _wb):
            addrs = [(bga.host, bga.port), (bgb.host, bgb.port)]

            # -- phase 1: shard across both pools, then "crash" the
            #    front after a couple of completions
            front = FederatedCoordinator(
                port=0, pools=addrs, journal_path=str(journal_path),
                chunk_specs=2, lease_timeout_s=FRONT_LEASE_TIMEOUT_S,
            )
            crash_server = BackgroundServer(server=front).start()
            client = ServiceClient(crash_server.host, crash_server.port,
                                   timeout=60)
            pre_crash = []
            for result in client.submit_iter([self.BASE], sweep=AXES):
                pre_crash.append(result)
                if len(pre_crash) == 2:
                    break
            job_id = client.last_job
            crash_server.stop()    # the pool aborts; no job-done
            client.close()

            state = JobJournal.replay(journal_path)
            job = state.jobs[job_id]
            assert not job.finished
            assert len(job.results) >= 2
            completed_hashes = job.completed_hashes()
            assert job.pending_specs()
            # bridge grants are plain lease records
            assert state.leases
            assert '"e":"assign"' not in journal_path.read_text()
            leases_before_resume = len(state.leases)

            # -- phase 2: a fresh front over the *same* pools resumes
            #    the journal and owes only what no pool completed
            resumed = FederatedCoordinator(
                port=0, pools=addrs, journal_path=str(journal_path),
                resume=True, chunk_specs=2,
                lease_timeout_s=FRONT_LEASE_TIMEOUT_S,
            )
            with BackgroundServer(server=resumed) as bg:
                with ServiceClient(bg.host, bg.port, timeout=60) as c2:
                    merged = list(c2.stream_job(job_id))
                    assert c2.last_done["total"] == 6
                    assert c2.last_done["failed"] == 0

        # merged report identical to the uninterrupted serial sweep
        assert payloads(merged) == payloads(serial)

        # zero re-executions of front-journal-completed specs: no
        # post-resume lease names a hash banked before the crash
        final = JobJournal.replay(journal_path)
        assert final.resumes == 1
        assert final.jobs[job_id].finished
        post_resume = final.leases[leases_before_resume:]
        assert post_resume
        assert not [
            spec_hash
            for (_job, spec_hash, _worker) in post_resume
            if spec_hash in completed_hashes
        ]


class TestRehomeBudget:
    """Who pays for a lost pool: a dark pool charges its leases against
    ``max_spec_retries``; a busy pool's release is free."""

    FAST = ScenarioSpec("_fed_fast", {"n": 3})

    def test_charged_rehomes_burn_the_retry_budget(self):
        rehomed = counter("federation.rehomed")
        with ScriptedPool("drop") as dropper:
            with federation([(dropper.host, dropper.port)],
                            max_spec_retries=1) as (bg, _front):
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    (result,) = client.submit([self.FAST])
        # lost with its pool twice: one retry allowed, then quarantine
        assert dropper.submits == 2
        assert result.status == "error"
        assert "quarantined: requeued 2 times" in result.error
        assert counter("federation.rehomed") >= rehomed + 2

    def test_uncharged_rehomes_are_free(self):
        base = ScenarioSpec("_fed_slow", {"k": 1, "delay": 0.05})
        serial = execute(expand_sweep(base, AXES), backend="serial")
        with ScriptedPool("busy") as busy, pool() as (bgb, _cb, _wb):
            addrs = [(busy.host, busy.port), (bgb.host, bgb.port)]
            with federation(addrs, chunk_specs=2,
                            max_spec_retries=0) as (bg, front):
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    results = client.submit([base], sweep=AXES)
                    assert client.last_done["failed"] == 0
                status = front.pool.status()
        assert payloads(results) == payloads(serial)
        # the busy pool was offered work and handed it back for free:
        # with no retry budget, a single charge would have quarantined
        assert busy.submits >= 1 and status["released"] >= 1
        assert status["requeued"] == 0 and status["quarantined"] == 0

    def test_delivered_and_abandoned_items_are_not_requeued(self):
        specs = [ScenarioSpec("_fed_fast", {"n": n}) for n in (1, 2, 3)]
        # one job per spec, so cancelling a job abandons one item
        jobs = [Job(id=f"job-{n}", specs=[spec])
                for n, spec in enumerate(specs, 1)]
        delivered = []

        class Writer:
            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

        async def lose_the_pool_midway():
            cluster = ClusterPool(max_spec_retries=5)
            cluster.start(asyncio.get_running_loop())
            bridge = cluster.register("pool-1", 3, Writer(),
                                      asyncio.Lock(), pool="h:1")
            for job in jobs:
                await cluster.submit(
                    job, job.specs,
                    lambda job, result: delivered.append(job.id))
            (done, done_item), (gone, gone_item), (_l, owed) = list(
                bridge.leases.items())
            # one result streamed back, one spec's job was cancelled,
            # then the pool died with the third still at it
            await cluster.complete(bridge, done,
                                   run_spec(done_item.spec).to_dict())
            gone_item.job.cancelled = True
            cluster.worker_lost(bridge.id)
            view = cluster.pools_status()
            cluster.shutdown()
            return cluster, (done_item, gone_item, owed), view

        cluster, (done, gone, owed), view = asyncio.run(
            lose_the_pool_midway())
        assert cluster.total_requeued == 1
        assert (done.requeues, gone.requeues, owed.requeues) == (0, 0, 1)
        assert [gone.job.id, owed.job.id] == ["job-2", "job-3"]
        assert delivered == ["job-1"]
        assert view == {"pool-1": {"pool": "h:1",
                                   "breaker": {"state": "open"},
                                   "leases": 0}}


class TestKillPoolChaos:
    def test_grammar_round_trips(self):
        monkey = ChaosMonkey.parse("seed=7,kill-pool@2")
        assert monkey.pending() == {"kill-pool": [2]}
        assert ChaosMonkey.parse(monkey.describe()).describe() == (
            monkey.describe()
        )

    def test_fires_at_the_nth_granted_lease(self):
        monkey = ChaosMonkey.parse("kill-pool@2")
        assert [monkey.fire("kill-pool") for _ in range(4)] == [
            False, True, False, False
        ]
        assert monkey.fired == [("kill-pool", 2)]

    def test_coordinator_accepts_a_chaos_monkey(self):
        monkey = ChaosMonkey.parse("kill-pool@999")
        coordinator = ClusterCoordinator(
            port=0, lease_timeout_s=LEASE_TIMEOUT_S, chaos=monkey,
        )
        assert coordinator.pool.chaos is monkey
