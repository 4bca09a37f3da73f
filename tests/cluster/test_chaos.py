"""The deterministic fault-injection harness, unit and end-to-end.

Schedule semantics are pure counter machinery (no sockets), so the
unit half runs instantly.  The end-to-end half arms real in-process
workers with chaos schedules and asserts the cluster heals: a
chaos-killed worker's leases are requeued and finished elsewhere, a
chaos-dropped connection reconnects through the backoff budget.
"""

import time

import pytest

from repro.cluster.chaos import CHAOS_ENV, ChaosError, ChaosMonkey
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.worker import BackgroundWorker
from repro.engine.executor import execute
from repro.engine.registry import scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer


class TestChaosSpecParsing:
    def test_full_spec_round_trips(self):
        spec = "seed=42,kill-worker@3,drop-conn@5,heartbeat-delay=0.05"
        monkey = ChaosMonkey.parse(spec)
        assert monkey.seed == 42
        assert monkey.pending() == {
            "kill-worker": [3], "drop-conn": [5]
        }
        assert monkey.heartbeat_delay_s == 0.05
        assert ChaosMonkey.parse(monkey.describe()).describe() == (
            monkey.describe()
        )

    def test_repeated_clauses_of_one_kind_compose(self):
        monkey = ChaosMonkey.parse(
            "skip-heartbeat@2,skip-heartbeat@3,skip-heartbeat@4"
        )
        assert monkey.pending() == {"skip-heartbeat": [2, 3, 4]}

    @pytest.mark.parametrize("bad", [
        "explode@1",              # unknown kind
        "kill-pool@1",            # retired: kill a pool with kill -9
        "kill-worker@0",          # counts are 1-based
        "kill-worker@soon",       # not a number
        "seed=pi",                # malformed value
        "heartbeat-delay=-1",     # negative delay
        "justwords",              # neither kind@N nor key=value
    ])
    def test_malformed_specs_raise_chaos_error(self, bad):
        with pytest.raises(ChaosError):
            ChaosMonkey.parse(bad)

    def test_from_env_reads_the_hook_variable(self):
        assert ChaosMonkey.from_env({}) is None
        monkey = ChaosMonkey.from_env({CHAOS_ENV: "kill-worker@1"})
        assert monkey.pending() == {"kill-worker": [1]}


class TestChaosFiring:
    def test_fires_exactly_once_on_the_nth_trigger(self):
        monkey = ChaosMonkey.parse("kill-worker@3")
        decisions = [monkey.fire("kill-worker") for _ in range(6)]
        assert decisions == [False, False, True, False, False, False]
        assert monkey.fired == [("kill-worker", 3)]

    def test_kinds_count_independently(self):
        monkey = ChaosMonkey.parse("kill-worker@2,drop-conn@1")
        assert monkey.fire("drop-conn") is True
        assert monkey.fire("kill-worker") is False
        assert monkey.fire("kill-worker") is True

    def test_seeded_heartbeat_delays_are_reproducible(self):
        a = ChaosMonkey.parse("seed=9,heartbeat-delay=0.5")
        b = ChaosMonkey.parse("seed=9,heartbeat-delay=0.5")
        assert [a.heartbeat_delay() for _ in range(5)] == [
            b.heartbeat_delay() for _ in range(5)
        ]
        draws = [a.heartbeat_delay() for _ in range(20)]
        assert all(0 <= d < 0.5 for d in draws)

    def test_zero_delay_without_the_clause(self):
        assert ChaosMonkey.parse("kill-worker@1").heartbeat_delay() == 0.0


@pytest.fixture(scope="module", autouse=True)
def chaos_scenarios():
    @scenario("_ch_sq", params={"n": 2})
    def _sq(n=2):
        return {"rows": [{"n": n, "sq": n * n}],
                "verdict": {"ok": True}}

    yield
    unregister("_ch_sq")


def _payloads(results):
    import json

    return sorted(
        json.dumps(r.comparable_payload(), sort_keys=True)
        for r in results
    )


class TestChaosEndToEnd:
    def test_chaos_killed_worker_is_survived_by_the_fleet(self):
        specs = [ScenarioSpec("_ch_sq", {"n": n}) for n in range(8)]
        serial = execute(specs, backend="serial")
        coordinator = ClusterCoordinator(port=0, lease_timeout_s=3.0)
        with BackgroundServer(server=coordinator) as bg:
            doomed = BackgroundWorker(
                bg.host, bg.port, name="doomed",
                chaos=ChaosMonkey.parse("seed=1,kill-worker@2"),
            ).start()
            steady = BackgroundWorker(bg.host, bg.port,
                                      name="steady").start()
            try:
                with ServiceClient(bg.host, bg.port,
                                   timeout=60) as client:
                    results = client.submit(specs)
                assert client.last_done["failed"] == 0
                assert _payloads(results) == _payloads(serial)
                # the chaos schedule actually fired, abruptly: the
                # second executed lease died unsent and was requeued
                assert doomed.worker.chaos.fired == [("kill-worker", 2)]
                deadline = time.monotonic() + 5
                while doomed.alive and time.monotonic() < deadline:
                    time.sleep(0.02)   # heartbeat thread winds down
                assert not doomed.alive
                assert coordinator.pool.total_requeued >= 1
            finally:
                steady.stop()
                doomed.stop()

    def test_chaos_dropped_connection_reconnects_and_finishes(self):
        specs = [ScenarioSpec("_ch_sq", {"n": n}) for n in range(6)]
        serial = execute(specs, backend="serial")
        coordinator = ClusterCoordinator(port=0, lease_timeout_s=3.0)
        with BackgroundServer(server=coordinator) as bg:
            flaky = BackgroundWorker(
                bg.host, bg.port, name="flaky", reconnects=3,
                reconnect_delay_s=0.05,
                chaos=ChaosMonkey.parse("seed=2,drop-conn@2"),
            ).start()
            try:
                with ServiceClient(bg.host, bg.port,
                                   timeout=60) as client:
                    results = client.submit(specs)
                assert client.last_done["failed"] == 0
                assert _payloads(results) == _payloads(serial)
                assert flaky.worker.chaos.fired == [("drop-conn", 2)]
                # same worker identity reconnected: the coordinator
                # saw (at least) two registrations
                assert coordinator.pool._worker_counter >= 2
            finally:
                flaky.stop()

    def test_suppressed_heartbeats_expire_the_leases(self):
        # silence every heartbeat: the monitor must evict the worker
        # and a healthy one must finish the job
        from repro.service import protocol

        coordinator = ClusterCoordinator(port=0, lease_timeout_s=1.0)
        with BackgroundServer(server=coordinator) as bg:
            # capacity 2 keeps one lease buffered (never executed) so
            # the silent worker holds something to expire
            @scenario("_ch_slow")
            def _slow():
                time.sleep(2.5)
                return {"rows": [{"z": 1}], "verdict": {"ok": True}}

            try:
                mute = BackgroundWorker(
                    bg.host, bg.port, name="mute", capacity=2,
                    chaos=ChaosMonkey.parse(
                        ",".join(f"skip-heartbeat@{i}"
                                 for i in range(1, 40))
                    ),
                ).start()
                live = None
                try:
                    slow = ScenarioSpec("_ch_slow")
                    fast = ScenarioSpec("_ch_sq", {"n": 3})
                    with ServiceClient(bg.host, bg.port,
                                       timeout=60) as client:
                        client.send(protocol.make_submit(
                            [slow.to_dict(), fast.to_dict()]
                        ))
                        assert client._recv_checked()["type"] == "ack"
                        # both leases must land on the silent worker
                        # before a healthy one exists to race for them
                        def inflight():
                            return sum(
                                len(w.leases)
                                for w in coordinator.pool.workers.values()
                            )

                        deadline = time.monotonic() + 5
                        while (inflight() < 2
                               and time.monotonic() < deadline):
                            time.sleep(0.02)
                        assert inflight() == 2
                        live = BackgroundWorker(bg.host, bg.port,
                                                name="live").start()
                        results = []
                        while True:
                            frame = client._recv_checked()
                            if frame["type"] == "done":
                                break
                            results.append(frame)
                    assert frame["failed"] == 0
                    assert len(results) == 2
                    assert coordinator.pool.total_requeued >= 1
                finally:
                    if live is not None:
                        live.stop()
                    mute.stop()
            finally:
                unregister("_ch_slow")
