"""Poisoned-spec quarantine and graceful worker drain.

Quarantine: a spec that keeps taking workers down with it must stop
being retried and surface as a structured failure, or one landmine
spec cycles through every worker the supervisor can spawn.  Drain: a
SIGTERM'd worker finishes its in-flight spec and hands unstarted
leases straight back via the ``release`` frame instead of stranding
them until the lease timeout.
"""

import json
import socket
import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.worker import BackgroundWorker
from repro.engine.registry import scenario, unregister
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer


@pytest.fixture(scope="module", autouse=True)
def selfheal_scenarios():
    @scenario("_sh_sq", params={"n": 2})
    def _sq(n=2):
        return {"rows": [{"n": n, "sq": n * n}],
                "verdict": {"ok": True}}

    @scenario("_sh_slow", params={"k": 1, "delay": 0.3})
    def _slow(k=1, delay=0.3):
        time.sleep(delay)
        return {"rows": [{"k": k}], "verdict": {"ok": True}}

    yield
    for name in ("_sh_sq", "_sh_slow"):
        unregister(name)


def _doomed_worker_cycle(host, port, name):
    """Register, take one lease, vanish — the poisoned-spec signature."""
    sock = socket.create_connection((host, port), timeout=10)
    reader = sock.makefile("rb")
    sock.sendall(protocol.encode_frame(
        protocol.make_register(name, capacity=1)
    ))
    assert json.loads(reader.readline())["type"] == "registered"
    lease = json.loads(reader.readline())
    assert lease["type"] == "lease"
    sock.close()                   # dies "executing" the spec
    return lease["spec"]["params"]


class TestQuarantine:
    def test_spec_that_keeps_killing_workers_is_quarantined(self):
        coordinator = ClusterCoordinator(
            port=0, lease_timeout_s=3.0, max_spec_retries=1
        )
        with BackgroundServer(server=coordinator) as bg:
            spec = ScenarioSpec("_sh_sq", {"n": 13})
            with ServiceClient(bg.host, bg.port, timeout=60) as client:
                client.send(protocol.make_submit([spec.to_dict()]))
                assert client._recv_checked()["type"] == "ack"
                # two involuntary losses: the first requeues
                # (retry 1 <= budget), the second quarantines
                for attempt in range(2):
                    _doomed_worker_cycle(bg.host, bg.port,
                                         f"doomed-{attempt}")
                frames = []
                while True:
                    frame = client._recv_checked()
                    if frame["type"] == "done":
                        break
                    frames.append(frame)
                assert frame["failed"] == 1
            assert len(frames) == 1
            result = frames[0]["result"]
            assert result["status"] == "error"
            assert "quarantined" in result["error"]
            assert result["spec_hash"] == spec.content_hash
            status = coordinator.pool.status()
            assert status["quarantined"] == 1
        # no live worker ever existed: the job finished anyway

    def test_quarantined_result_carries_plain_params(self):
        # a nested-mapping param is stored frozen on the spec; the
        # quarantine result must carry it as the plain dict every
        # other result path reports
        coordinator = ClusterCoordinator(
            port=0, lease_timeout_s=3.0, max_spec_retries=0
        )
        with BackgroundServer(server=coordinator) as bg:
            spec = ScenarioSpec("_sh_sq", {"n": 5, "knobs": {"a": 1}})
            with ServiceClient(bg.host, bg.port, timeout=60) as client:
                client.send(protocol.make_submit([spec.to_dict()]))
                assert client._recv_checked()["type"] == "ack"
                _doomed_worker_cycle(bg.host, bg.port, "doomed")
                frames = []
                while True:
                    frame = client._recv_checked()
                    if frame["type"] == "done":
                        break
                    frames.append(frame)
            (job,) = coordinator.jobs.values()
        result = ScenarioResult.from_dict(frames[0]["result"])
        assert "quarantined" in result.error
        assert result.params == spec.params_dict()
        assert job.results[0].params == spec.params_dict()

    def test_graceful_release_does_not_burn_the_retry_budget(self):
        # a drain hand-off is not the spec's fault: release twice with
        # a budget of one and the spec must still execute fine
        coordinator = ClusterCoordinator(
            port=0, lease_timeout_s=3.0, max_spec_retries=1
        )
        with BackgroundServer(server=coordinator) as bg:
            spec = ScenarioSpec("_sh_sq", {"n": 4})
            with ServiceClient(bg.host, bg.port, timeout=60) as client:
                client.send(protocol.make_submit([spec.to_dict()]))
                assert client._recv_checked()["type"] == "ack"
                for attempt in range(2):
                    sock = socket.create_connection((bg.host, bg.port),
                                                    timeout=10)
                    reader = sock.makefile("rb")
                    sock.sendall(protocol.encode_frame(
                        protocol.make_register(f"polite-{attempt}",
                                               capacity=1)
                    ))
                    worker_id = json.loads(reader.readline())["worker"]
                    lease = json.loads(reader.readline())
                    sock.sendall(protocol.encode_frame(
                        protocol.make_release([lease["lease"]],
                                              worker_id)
                    ))
                    assert json.loads(reader.readline())["type"] == "ack"
                    sock.close()
                finisher = BackgroundWorker(bg.host, bg.port,
                                            name="finisher").start()
                try:
                    frames = []
                    while True:
                        frame = client._recv_checked()
                        if frame["type"] == "done":
                            break
                        frames.append(frame)
                    assert frame["failed"] == 0
                    assert frames[0]["result"]["status"] == "ok"
                finally:
                    finisher.stop()
            assert coordinator.pool.total_released == 2
            assert coordinator.pool.total_quarantined == 0


class TestGracefulDrain:
    def test_drained_worker_releases_buffered_leases(self):
        specs = [
            ScenarioSpec("_sh_slow", {"k": k, "delay": 0.4})
            for k in range(1, 5)
        ]
        coordinator = ClusterCoordinator(port=0, lease_timeout_s=30.0)
        with BackgroundServer(server=coordinator) as bg:
            # capacity 3: one executing, two buffered client-side
            leaver = BackgroundWorker(bg.host, bg.port, name="leaver",
                                      capacity=3).start()
            try:
                with ServiceClient(bg.host, bg.port,
                                   timeout=60) as client:
                    results = []
                    iterator = client.submit_iter(specs)
                    results.append(next(iterator))
                    # the worker is now mid-spec #2 with more buffered;
                    # drain it and bring a successor for the rest
                    leaver.drain()
                    successor = BackgroundWorker(bg.host, bg.port,
                                                 name="successor").start()
                    try:
                        results.extend(iterator)
                    finally:
                        successor.stop()
                    assert client.last_done["failed"] == 0
                assert len(results) == 4
                # the drain actually handed leases back — the lease
                # timeout (30s, longer than this test) never fired
                assert coordinator.pool.total_released >= 1
                assert leaver.worker.released >= 1
                assert not leaver.alive
                # and the successor, not a timeout-requeue, ran them
                assert successor.worker.executed >= 1
                assert coordinator.pool.total_requeued == 0
            finally:
                leaver.stop()

    def test_drain_with_nothing_leased_just_exits(self):
        coordinator = ClusterCoordinator(port=0, lease_timeout_s=5.0)
        with BackgroundServer(server=coordinator) as bg:
            idler = BackgroundWorker(bg.host, bg.port,
                                     name="idler").start()
            deadline = time.monotonic() + 5
            while (not coordinator.pool.workers
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            idler.drain()
            assert not idler.alive
            assert idler.worker.released == 0
