"""Coordinator + workers end-to-end: parity, leasing, faults, auth.

Every test runs a real coordinator on an ephemeral port with real
worker connections.  The scenarios registered here are deliberately
RNG-free: in-process workers share the process-global RNGs, so only
deterministic arithmetic keeps "identical to the serial run"
assertions honest regardless of interleaving.
"""

import contextlib
import json
import os
import socket
import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.worker import BackgroundWorker, ClusterWorker, WorkerError
from repro.engine.executor import execute
from repro.engine.registry import scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import BackgroundServer
from repro.service.shard import expand_sweep
from repro.telemetry.metrics import METRICS

SLOW_S = 0.35
LEASE_TIMEOUT_S = 3.0
#: the default executor's thread count: the job-cap case submits more
#: jobs than this, so a job that needs a thread leaves specs unqueued
EXECUTOR_THREADS = min(32, (os.cpu_count() or 1) + 4)


@pytest.fixture(scope="module", autouse=True)
def cluster_scenarios():
    @scenario("_cl_fast", params={"n": 2})
    def _fast(n=2):
        return {"rows": [{"i": i, "sq": i * i} for i in range(n)],
                "verdict": {"ok": True}}

    @scenario("_cl_slow", params={"k": 1, "delay": SLOW_S})
    def _slow(k=1, delay=SLOW_S):
        time.sleep(delay)
        return {"rows": [{"k": k, "cube": k ** 3}],
                "verdict": {"ok": True}}

    yield
    for name in ("_cl_fast", "_cl_slow"):
        unregister(name)


@contextlib.contextmanager
def cluster(workers=1, journal_path=None, **coordinator_kwargs):
    coordinator_kwargs.setdefault("lease_timeout_s", LEASE_TIMEOUT_S)
    coordinator = ClusterCoordinator(
        port=0, journal_path=journal_path, **coordinator_kwargs
    )
    with BackgroundServer(server=coordinator) as bg:
        pool = []
        try:
            for index in range(workers):
                pool.append(
                    BackgroundWorker(
                        bg.host, bg.port, name=f"tw{index}",
                        auth_token=coordinator_kwargs.get("auth_token"),
                    ).start()
                )
            yield bg, coordinator, pool
        finally:
            for worker in pool:
                worker.stop()


def payloads(results):
    return sorted(
        json.dumps(r.comparable_payload(), sort_keys=True) for r in results
    )


class TestClusterExecution:
    AXES = {"k": [1, 2, 3, 4, 5, 6]}
    BASE = ScenarioSpec("_cl_slow", {"k": 1, "delay": 0.05})

    def test_single_worker_matches_local_run(self):
        specs = [ScenarioSpec("_cl_fast", {"n": n}) for n in (2, 3, 4)]
        serial = execute(specs, backend="serial")
        with cluster(workers=1) as (bg, _coord, _pool):
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                results = client.submit(specs)
                assert client.last_done["failed"] == 0
        assert payloads(results) == payloads(serial)

    def test_sweep_is_shared_across_workers_and_matches_serial(self):
        serial = execute(expand_sweep(self.BASE, self.AXES),
                         backend="serial")
        with cluster(workers=2) as (bg, _coord, pool):
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                results = client.submit([self.BASE], sweep=self.AXES)
        assert payloads(results) == payloads(serial)
        # spec-granular leasing: nobody drew a fixed i/N shard, yet
        # both workers contributed
        executed = [w.worker.executed for w in pool]
        assert sum(executed) == 6
        assert all(count > 0 for count in executed)

    def test_jobs_queue_until_a_worker_registers(self):
        # one streamed job, then more unstreamed one-spec jobs than the
        # default executor has threads
        for jobs in (1, EXECUTOR_THREADS + 2):
            specs = [ScenarioSpec("_cl_fast", {"n": n})
                     for n in range(5, 5 + jobs)]
            stream = jobs == 1
            with cluster(workers=0) as (bg, coordinator, _pool):
                with ServiceClient(bg.host, bg.port, timeout=30) as client:
                    ids = []
                    for spec in specs:
                        client.send(protocol.make_submit([spec.to_dict()],
                                                         stream=stream))
                        ack = client._recv_checked()
                        assert ack["type"] == "ack"
                        ids.append(ack["job"])
                    # every job is accepted and queued, with nobody to
                    # run it
                    deadline = time.monotonic() + 5
                    while (len(coordinator.pool.queue) < jobs
                           and time.monotonic() < deadline):
                        time.sleep(0.02)
                    assert len(coordinator.pool.queue) == jobs
                    late = BackgroundWorker(bg.host, bg.port,
                                            name="late").start()
                    try:
                        if stream:
                            results = []
                            frame = client._recv_checked()
                            while frame["type"] != "done":
                                results.append(frame["result"])
                                frame = client._recv_checked()
                        else:
                            results = [r.to_dict() for job in ids
                                       for r in client.stream_job(job)]
                    finally:
                        late.stop()
            assert len(results) == jobs
            assert all(r["status"] == "ok" for r in results)

    def test_worker_cache_replays_on_resubmit(self, tmp_path):
        spec = ScenarioSpec("_cl_fast", {"n": 7})
        coordinator = ClusterCoordinator(port=0,
                                         lease_timeout_s=LEASE_TIMEOUT_S)
        with BackgroundServer(server=coordinator) as bg:
            worker = BackgroundWorker(bg.host, bg.port, name="cw",
                                      cache=tmp_path / "cache").start()
            try:
                with ServiceClient(bg.host, bg.port, timeout=30) as client:
                    client.submit([spec])
                    assert client.last_done["cached"] == 0
                    again = client.submit([spec])
                    assert client.last_done["cached"] == 1
                    assert again[0].cached
            finally:
                worker.stop()

    def test_cancel_stops_leasing_mid_sweep(self):
        specs = [
            ScenarioSpec("_cl_slow", {"k": k, "delay": 0.3})
            for k in range(1, 7)
        ]
        with cluster(workers=1) as (bg, _coord, _pool):
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                results = []
                for result in client.submit_iter(specs):
                    results.append(result)
                    if len(results) == 1:
                        client.send(protocol.make_cancel(client.last_job))
                assert client.last_done["cancelled"]
                assert len(results) < 6

    def test_cancel_of_a_queued_job_ends_it_at_once(self):
        specs = [ScenarioSpec("_cl_fast", {"n": n}) for n in (2, 3, 4)]
        granted = METRICS.counter("cluster.leases_granted").value
        with cluster(workers=0) as (bg, coordinator, _pool):
            # a 2 s read timeout: the done frame must not wait for a
            # worker to show up
            with ServiceClient(bg.host, bg.port, timeout=2) as client:
                client.send(protocol.make_submit([s.to_dict()
                                                  for s in specs]))
                job = client._recv_checked()["job"]
                client.send(protocol.make_cancel(job))
                frames = [client._recv_checked()]
                while frames[-1]["type"] != "done":
                    frames.append(client._recv_checked())
                assert frames[-1]["cancelled"]
                assert [f["type"] for f in frames] == ["ack", "done"]
                # the cancel purged the job's queued items at once
                assert len(coordinator.pool.queue) == 0
                assert coordinator.pool.backlog() == 0
                late = BackgroundWorker(bg.host, bg.port,
                                        name="late").start()
                try:
                    deadline = time.monotonic() + 5
                    while ((not coordinator.pool.workers
                            or len(coordinator.pool.queue))
                           and time.monotonic() < deadline):
                        time.sleep(0.02)
                    assert len(coordinator.pool.queue) == 0
                    assert client.status(job)[job]["state"] == "cancelled"
                finally:
                    late.stop()
        # the late worker found nothing of the cancelled job to lease
        assert late.worker.executed == 0
        assert METRICS.counter("cluster.leases_granted").value == granted

    def test_status_counts_workers_and_queue(self):
        with cluster(workers=2) as (_bg, coordinator, _pool):
            deadline = time.monotonic() + 5
            while (len(coordinator.pool.workers) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            status = coordinator.pool.status()
            assert len(status["workers"]) == 2
            assert status["queued"] == 0


class TestWorkerFailure:
    AXES = {"k": [1, 2, 3, 4, 5, 6]}
    BASE = ScenarioSpec("_cl_slow", {"k": 1, "delay": SLOW_S})

    def test_killed_worker_mid_sweep_requeues_and_completes(self):
        serial = execute(expand_sweep(self.BASE, self.AXES),
                         backend="serial")
        with cluster(workers=2) as (bg, coordinator, pool):
            victim, survivor = pool
            with ServiceClient(bg.host, bg.port, timeout=60) as client:
                results = []
                for result in client.submit_iter([self.BASE],
                                                 sweep=self.AXES):
                    results.append(result)
                    if len(results) == 1:
                        victim.kill()  # takes its leases down with it
                assert client.last_done["failed"] == 0
                assert not client.last_done["cancelled"]
        assert payloads(results) == payloads(serial)
        assert not victim.alive
        # the survivor picked up the victim's requeued share
        assert survivor.worker.executed >= 3

    def test_silent_worker_leases_expire_and_requeue(self):
        # a worker that registers, leases, then never answers: its
        # leases must come back after the (short) lease timeout
        coordinator = ClusterCoordinator(port=0, lease_timeout_s=1.0)
        with BackgroundServer(server=coordinator) as bg:
            zombie = socket.create_connection((bg.host, bg.port),
                                              timeout=10)
            zombie.sendall(protocol.encode_frame(
                protocol.make_register("zombie", capacity=2)
            ))
            zombie.makefile("rb").readline()  # wait for `registered`
            live = BackgroundWorker(bg.host, bg.port, name="live").start()
            try:
                specs = [
                    ScenarioSpec("_cl_fast", {"n": n})
                    for n in range(2, 8)
                ]
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    results = client.submit(specs)
                assert len(results) == 6
                assert client.last_done["failed"] == 0
                assert coordinator.pool.total_requeued >= 1
            finally:
                live.stop()
                zombie.close()

    def test_undecodable_lease_result_requeues_instead_of_orphaning(self):
        # a worker answering a lease with a result dict that does not
        # deserialize must not strand the spec: it goes back on the
        # queue and a healthy worker (re-pumped by its heartbeat)
        # finishes the job
        coordinator = ClusterCoordinator(port=0, lease_timeout_s=1.0)
        with BackgroundServer(server=coordinator) as bg:
            buggy = socket.create_connection((bg.host, bg.port),
                                             timeout=10)
            reader = buggy.makefile("rb")
            buggy.sendall(protocol.encode_frame(
                protocol.make_register("buggy", capacity=1)
            ))
            reader.readline()  # registered
            with ServiceClient(bg.host, bg.port, timeout=60) as client:
                client.send(protocol.make_submit(
                    [ScenarioSpec("_cl_fast", {"n": 3}).to_dict()]
                ))
                assert client._recv_checked()["type"] == "ack"
                lease = json.loads(reader.readline())
                assert lease["type"] == "lease"
                buggy.sendall(protocol.encode_frame(
                    protocol.make_lease_result(lease["lease"], {})
                ))
                error = json.loads(reader.readline())
                assert error["type"] == "error"
                assert error["code"] == "bad-message"
                live = BackgroundWorker(bg.host, bg.port,
                                        name="healthy").start()
                try:
                    frames = []
                    while True:
                        frame = client._recv_checked()
                        if frame["type"] == "done":
                            break
                        frames.append(frame)
                    assert len(frames) == 1
                    assert frames[0]["result"]["status"] == "ok"
                finally:
                    live.stop()
            buggy.close()

    def test_late_result_from_an_evicted_worker_is_dropped(self):
        # regression guard on the stale-lease path: complete() for a
        # lease the pool no longer tracks must be a silent no-op
        coordinator = ClusterCoordinator(port=0, lease_timeout_s=1.0)
        with BackgroundServer(server=coordinator) as bg:
            zombie = socket.create_connection((bg.host, bg.port),
                                              timeout=10)
            reader = zombie.makefile("rb")
            zombie.sendall(protocol.encode_frame(
                protocol.make_register("zombie", capacity=1)
            ))
            reader.readline()
            live = BackgroundWorker(bg.host, bg.port, name="live").start()
            try:
                spec = ScenarioSpec("_cl_fast", {"n": 9})
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    results = client.submit([spec])
                    assert len(results) == 1
                    # the zombie held the first lease; answer it now,
                    # long after eviction — nothing should blow up and
                    # the job must not double-deliver
                    lease = json.loads(reader.readline())
                    with contextlib.suppress(OSError):
                        zombie.sendall(protocol.encode_frame(
                            protocol.make_lease_result(
                                lease["lease"], results[0].to_dict()
                            )
                        ))
                    time.sleep(0.2)
                    assert client.ping()  # coordinator still healthy
            finally:
                live.stop()
                zombie.close()


class TestListenerHardening:
    def test_plain_server_rejects_worker_frames_structurally(self):
        from repro.service.backend import LocalBackend

        with BackgroundServer(LocalBackend(backend="serial")) as bg:
            with socket.create_connection((bg.host, bg.port),
                                          timeout=10) as sock:
                sock.sendall(protocol.encode_frame(
                    protocol.make_register("w", capacity=1)
                ))
                reply = json.loads(sock.makefile("rb").readline())
        assert reply["type"] == "error"
        assert reply["code"] == "unsupported"

    def test_guarded_coordinator_refuses_tokenless_worker(self):
        with cluster(workers=0, auth_token="hunter2") as (bg, _c, _p):
            worker = ClusterWorker(bg.host, bg.port, name="anon",
                                   connect_retries=5, reconnects=0)
            with pytest.raises(WorkerError) as info:
                worker._serve_one_connection()
            assert "unauthorized" in str(info.value)

    def test_guarded_coordinator_accepts_token_carrying_fleet(self):
        spec = ScenarioSpec("_cl_fast", {"n": 4})
        with cluster(workers=1, auth_token="hunter2") as (bg, _c, _p):
            with ServiceClient(bg.host, bg.port, timeout=30,
                               auth_token="hunter2") as client:
                results = client.submit([spec])
            assert results[0].ok

    def test_unknown_worker_heartbeat_is_a_structured_error(self):
        with cluster(workers=0) as (bg, _c, _p):
            with socket.create_connection((bg.host, bg.port),
                                          timeout=10) as sock:
                sock.sendall(protocol.encode_frame(
                    protocol.make_heartbeat("w99")
                ))
                reply = json.loads(sock.makefile("rb").readline())
        assert reply["code"] == "unknown-worker"
