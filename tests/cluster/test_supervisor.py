"""Worker supervision: autoscaling, backoff restarts, crash-loop cutoff.

The policy tests drive :meth:`WorkerSupervisor.tick` with a fake
clock and fake process handles — no sleeps, no subprocesses — so
every timing rule (backoff delay, crash window, idle grace) is
asserted against explicit instants; the spawner tests record the worker
command line instead of launching it.  One end-to-end test then wires a
supervisor to a real coordinator with thread-backed workers to prove
a crash-looping slot cannot wedge a sweep.
"""

import random
import subprocess
import sys
import time

import pytest

from repro.cluster import supervisor as supervisor_mod
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.supervisor import (
    BACKOFF,
    CRASH_LOOPED,
    LIVE,
    WorkerSupervisor,
)
from repro.cluster.worker import BackgroundWorker
from repro.engine.registry import scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service.backoff import Backoff
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer
from repro.telemetry.events import BUS
from repro.telemetry.metrics import METRICS


class FakeHandle:
    """A controllable stand-in for a worker process."""

    def __init__(self):
        self._alive = True
        self.terminated = False
        self.killed = False

    def alive(self):
        return self._alive

    def die(self):
        self._alive = False

    def terminate(self):
        self.terminated = True
        self._alive = False

    def kill(self):
        self.killed = True
        self._alive = False

    def wait(self, timeout=None):
        pass


class FakePool:
    def __init__(self, backlog=0):
        self._backlog = backlog

    def backlog(self):
        return self._backlog


def make_supervisor(min_workers=1, max_workers=4, backlog=0, **kwargs):
    handles = []

    def spawn(_slot):
        handle = FakeHandle()
        handles.append(handle)
        return handle

    kwargs.setdefault("backoff",
                      Backoff(base_s=1.0, max_s=8.0, jitter=0.0))
    kwargs.setdefault("idle_grace_s", 5.0)
    supervisor = WorkerSupervisor(
        spawn, min_workers, max_workers,
        clock=lambda: 0.0, rng=random.Random(0), **kwargs
    )
    supervisor.pool = FakePool(backlog)
    return supervisor, handles


class TestAutoscaling:
    def test_first_tick_spawns_the_floor(self):
        supervisor, handles = make_supervisor(min_workers=2)
        supervisor.tick(0.0)
        assert len(handles) == 2
        assert supervisor.status()["live"] == 2

    def test_backlog_scales_up_to_the_ceiling(self):
        supervisor, handles = make_supervisor(
            min_workers=1, max_workers=3, backlog=100,
            specs_per_worker=4,
        )
        supervisor.tick(0.0)
        # ceil(100/4) = 25, clamped to max_workers
        assert len(handles) == 3
        assert supervisor.desired_workers(100) == 3

    def test_desired_tracks_backlog_proportionally(self):
        supervisor, _handles = make_supervisor(
            min_workers=1, max_workers=8, specs_per_worker=4
        )
        assert supervisor.desired_workers(0) == 1
        assert supervisor.desired_workers(5) == 2
        assert supervisor.desired_workers(17) == 5
        assert supervisor.desired_workers(10_000) == 8

    def test_scale_down_waits_out_the_idle_grace(self):
        supervisor, handles = make_supervisor(
            min_workers=1, max_workers=4, backlog=16, idle_grace_s=5.0
        )
        supervisor.tick(0.0)
        assert supervisor.status()["live"] == 4
        supervisor.pool._backlog = 0      # demand collapses
        supervisor.tick(1.0)              # starts the grace clock
        assert supervisor.status()["live"] == 4
        supervisor.tick(3.0)              # still inside the grace
        assert supervisor.status()["live"] == 4
        supervisor.tick(7.0)              # grace expired: retire
        assert supervisor.status()["live"] == 1
        # retirement is graceful (terminate → drain), never a kill
        assert any(h.terminated for h in handles)
        assert not any(h.killed for h in handles)

    def test_demand_spike_during_grace_cancels_the_scale_down(self):
        supervisor, _handles = make_supervisor(
            min_workers=1, max_workers=4, backlog=16, idle_grace_s=5.0
        )
        supervisor.tick(0.0)
        supervisor.pool._backlog = 0
        supervisor.tick(1.0)
        supervisor.pool._backlog = 16     # demand returns mid-grace
        supervisor.tick(2.0)
        supervisor.tick(100.0)
        assert supervisor.status()["live"] == 4


class TestRestartBackoff:
    def test_death_schedules_a_restart_after_the_backoff_delay(self):
        supervisor, handles = make_supervisor(min_workers=1)
        supervisor.tick(0.0)
        handles[0].die()
        supervisor.tick(10.0)             # reap: first death, attempt 0
        slot = supervisor.slots[0]
        assert slot.state == BACKOFF
        assert slot.restart_at == pytest.approx(11.0)  # base_s=1, no jitter
        supervisor.tick(10.5)             # before restart_at: no spawn
        assert len(handles) == 1
        supervisor.tick(11.0)             # due: respawn
        assert len(handles) == 2
        assert slot.state == LIVE
        assert supervisor.restarts_total == 1

    def test_repeated_deaths_ramp_the_delay_exponentially(self):
        supervisor, handles = make_supervisor(
            min_workers=1, crash_threshold=10, crash_window_s=1000.0
        )
        supervisor.tick(0.0)
        gaps = []
        now = 0.0
        for _death in range(4):
            handles[-1].die()
            now += 0.001
            supervisor.tick(now)
            slot = supervisor.slots[0]
            gaps.append(slot.restart_at - now)
            now = slot.restart_at
            supervisor.tick(now)          # respawn exactly on schedule
        assert gaps == pytest.approx([1.0, 2.0, 4.0, 8.0])

    def test_deaths_outside_the_window_are_forgiven(self):
        supervisor, handles = make_supervisor(
            min_workers=1, crash_threshold=3, crash_window_s=60.0
        )
        supervisor.tick(0.0)
        # two deaths long ago, then one far outside the window: the
        # pruned history restarts at attempt 0 again
        for now in (0.0, 2.0):
            handles[-1].die()
            supervisor.tick(now)
            supervisor.tick(supervisor.slots[0].restart_at)
        handles[-1].die()
        supervisor.tick(500.0)
        slot = supervisor.slots[0]
        assert slot.state == BACKOFF
        assert slot.restart_at - 500.0 == pytest.approx(1.0)


class TestCrashLoop:
    def test_threshold_deaths_in_window_stop_the_restarts(self):
        supervisor, handles = make_supervisor(
            min_workers=1, crash_threshold=3, crash_window_s=60.0
        )
        now = 0.0
        supervisor.tick(now)
        for _death in range(3):
            handles[-1].die()
            now += 0.1
            supervisor.tick(now)
            if supervisor.slots[0].state == BACKOFF:
                now = supervisor.slots[0].restart_at
                supervisor.tick(now)
        slot = supervisor.slots[0]
        assert slot.state == CRASH_LOOPED
        spawned = len(handles)
        supervisor.tick(now + 1000.0)     # no resurrection, ever
        assert len(handles) == spawned
        assert supervisor.status()["crash_looped"] == 1

    def test_crash_looped_slot_occupies_its_position(self):
        # the cut-off slot must not be replaced by a fresh slot, or
        # the loop would just migrate to a new pid forever
        supervisor, handles = make_supervisor(
            min_workers=2, max_workers=2, crash_threshold=2,
            crash_window_s=60.0,
        )
        now = 0.0
        supervisor.tick(now)
        for _death in range(2):
            supervisor.slots[0].handle.die()
            now += 0.1
            supervisor.tick(now)
            if supervisor.slots[0].state == BACKOFF:
                now = supervisor.slots[0].restart_at
                supervisor.tick(now)
        assert supervisor.slots[0].state == CRASH_LOOPED
        supervisor.tick(now + 100.0)
        status = supervisor.status()
        assert status["crash_looped"] == 1
        assert status["live"] == 1        # the healthy slot, untouched
        assert len(supervisor.slots) == 2

    def test_spawn_failure_counts_as_a_death(self):
        attempts = []

        def bad_spawn(slot):
            attempts.append(slot)
            raise OSError("no such binary")

        supervisor = WorkerSupervisor(
            bad_spawn, 1, 1, crash_threshold=3,
            backoff=Backoff(base_s=1.0, max_s=8.0, jitter=0.0),
            clock=lambda: 0.0,
        )
        supervisor.pool = FakePool()
        deaths = METRICS.counter("cluster.supervisor.deaths").value
        loops = METRICS.counter("cluster.supervisor.crash_loops").value
        events = []
        BUS.subscribe(events.append)
        try:
            now = 0.0
            for _ in range(10):
                supervisor.tick(now)
                now = max(now + 0.1, supervisor.slots[0].restart_at)
        finally:
            BUS.unsubscribe(events.append)
        assert supervisor.slots[0].state == CRASH_LOOPED
        assert len(attempts) == 3
        # the operator sees a slot that never started like any other
        # crash loop: in the counters and on the bus
        assert METRICS.counter("cluster.supervisor.deaths").value \
            == deaths + 3
        assert METRICS.counter("cluster.supervisor.crash_loops").value \
            == loops + 1
        kinds = [e.kind for e in events
                 if e.component == "cluster.supervisor"]
        assert kinds.count("worker-death") == 3
        assert kinds[-1] == "crash-loop"


class TestStatusBlock:
    def test_status_reports_the_full_roster_shape(self):
        supervisor, handles = make_supervisor(
            min_workers=2, max_workers=4
        )
        supervisor.tick(0.0)
        handles[0].die()
        supervisor.tick(1.0)
        status = supervisor.status()
        assert status == {
            "min": 2, "max": 4, "desired": 2,
            "live": 1, "restarting": 1, "crash_looped": 0,
            "retiring": 0, "spawned_total": 2, "restarts_total": 0,
            "retired_total": 0,
        }

    def test_shutdown_terminates_every_live_child(self):
        supervisor, handles = make_supervisor(min_workers=3)
        supervisor.tick(0.0)
        supervisor.shutdown()
        assert all(h.terminated for h in handles)
        supervisor.tick(1.0)              # closed: a no-op
        assert len(handles) == 3


class FakePopen:
    """Records the command line a spawner would launch."""

    launched = []

    def __init__(self, argv, **kwargs):
        self.argv = argv
        self.kwargs = kwargs
        self.pid = 4242
        FakePopen.launched.append(self)

    def poll(self):
        return None


class TestProcessSpawner:
    @pytest.fixture(autouse=True)
    def fake_popen(self, monkeypatch):
        FakePopen.launched = []
        monkeypatch.setattr(supervisor_mod.subprocess, "Popen", FakePopen)

    def test_launches_a_worker_named_for_its_slot(self):
        handle = supervisor_mod.process_spawner("127.0.0.1:9000")(3)
        (proc,) = FakePopen.launched
        assert proc.argv == [
            sys.executable, "-m", "repro", "worker",
            "--connect", "127.0.0.1:9000", "--name", "sup-3",
        ]
        assert proc.kwargs["stdin"] is subprocess.DEVNULL
        assert handle.pid == 4242 and handle.alive()

    def test_each_slot_gets_its_own_cache_and_the_token(self):
        spawn = supervisor_mod.process_spawner(
            "h:1", cache_dir="/caches", auth_token="s3cret"
        )
        spawn(0)
        spawn(1)
        assert [p.argv[8:] for p in FakePopen.launched] == [
            ["--cache", "/caches/slot-0", "--auth-token", "s3cret"],
            ["--cache", "/caches/slot-1", "--auth-token", "s3cret"],
        ]

    def test_the_worker_command_accepts_every_flag_passed(self):
        from repro.engine.cli import build_parser

        supervisor_mod.process_spawner(
            "h:1", cache_dir="/caches", auth_token="s3cret"
        )(2)
        args = build_parser().parse_args(FakePopen.launched[0].argv[3:])
        assert (args.connect, args.name, args.cache, args.auth_token) == (
            "h:1", "sup-2", "/caches/slot-2", "s3cret"
        )


@pytest.fixture(scope="module", autouse=True)
def supervisor_scenarios():
    @scenario("_sup_sq", params={"n": 2})
    def _sq(n=2):
        return {"rows": [{"n": n, "sq": n * n}],
                "verdict": {"ok": True}}

    yield
    unregister("_sup_sq")


class ThreadHandle:
    """A supervised 'process' backed by an in-process worker thread."""

    def __init__(self, host, port, name):
        self.bw = BackgroundWorker(host, port, name=name).start()

    def alive(self):
        return self.bw.alive

    def terminate(self):
        self.bw.worker.drain()

    def kill(self):
        self.bw.worker.kill()

    def wait(self, timeout=None):
        self.bw._thread.join(timeout=timeout)


class DeadOnArrival:
    """A child that dies the instant it is spawned (crash-loop fuel)."""

    def alive(self):
        return False

    def terminate(self):
        pass

    kill = terminate

    def wait(self, timeout=None):
        pass


class TestSupervisedClusterEndToEnd:
    def test_crash_looping_slot_does_not_wedge_the_sweep(self):
        """Acceptance: slot 1 dies on every spawn and is cut off after
        the crash budget; the sweep still completes on slot 0's healthy
        worker, and the cut-off is visible in the status frame."""
        coordinator = ClusterCoordinator(port=0, lease_timeout_s=5.0)
        threads = []

        def spawn(slot):
            if slot == 1:
                return DeadOnArrival()
            handle = ThreadHandle(coordinator.host, coordinator.port,
                                  f"sup-{slot}")
            threads.append(handle)
            return handle

        supervisor = WorkerSupervisor(
            spawn, min_workers=2, max_workers=2,
            crash_threshold=3, crash_window_s=60.0,
            backoff=Backoff(base_s=0.01, max_s=0.05, jitter=0.0),
            tick_s=0.02,
        )
        coordinator.supervisor = supervisor
        with BackgroundServer(server=coordinator) as bg:
            try:
                specs = [
                    ScenarioSpec("_sup_sq", {"n": n}) for n in range(6)
                ]
                with ServiceClient(bg.host, bg.port,
                                   timeout=30) as client:
                    results = client.submit(specs)
                    assert len(results) == 6
                    assert client.last_done["failed"] == 0
                    deadline = time.monotonic() + 10
                    while (supervisor.status()["crash_looped"] < 1
                           and time.monotonic() < deadline):
                        time.sleep(0.02)
                    status = client.status_full()
                sup = status["cluster"]["supervisor"]
                assert sup["crash_looped"] == 1
                assert sup["live"] >= 1
                assert sup["restarts_total"] >= 2
            finally:
                for handle in threads:
                    handle.kill()
        assert supervisor.closed  # coordinator stop tears it down
