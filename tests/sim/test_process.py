"""Unit tests for generator-based processes."""

import pytest

from repro.sim.core import SimulationError, Simulator, Timeout
from repro.sim.process import Process


class TestProcessLifecycle:
    def test_spawn_runs_at_current_time(self):
        sim = Simulator()
        log = []

        def proc():
            log.append(sim.now)
            yield Timeout(1)

        sim.spawn(proc())
        assert log == []  # nothing runs until the loop does
        sim.run()
        assert log == [0.0]

    def test_timeout_advances_process(self):
        sim = Simulator()
        log = []

        def proc():
            yield Timeout(5)
            log.append(sim.now)
            yield Timeout(2.5)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [5.0, 7.5]

    def test_yield_none_resumes_same_time(self):
        sim = Simulator()
        log = []

        def proc():
            yield None
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [0.0]

    def test_unsupported_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "nonsense"

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestProcessJoin:
    def test_join_receives_return_value(self):
        sim = Simulator()
        log = []

        def child():
            yield Timeout(10)
            return "done"

        def parent():
            handle = sim.spawn(child())
            value = yield handle
            log.append((value, sim.now))

        sim.spawn(parent())
        sim.run()
        assert log == [("done", 10.0)]

    def test_join_on_finished_process(self):
        sim = Simulator()
        log = []

        def child():
            yield Timeout(1)
            return 5

        handle = sim.spawn(child())

        def parent():
            yield Timeout(20)  # child long finished
            value = yield handle
            log.append((value, sim.now))

        sim.spawn(parent())
        sim.run()
        assert log == [(5, 20.0)]


class TestEventWaiting:
    def test_wait_receives_event_value(self):
        sim = Simulator()
        gate = sim.event("gate")
        log = []

        def proc():
            value = yield gate
            log.append(value)

        sim.spawn(proc())
        sim.schedule(5.0, lambda: gate.succeed("open"))
        sim.run()
        assert log == ["open"]

    def test_failed_event_raises_in_process(self):
        sim = Simulator()
        gate = sim.event()
        log = []

        def proc():
            try:
                yield gate
            except RuntimeError as exc:
                log.append(str(exc))

        sim.spawn(proc())
        sim.schedule(1.0, lambda: gate.fail(RuntimeError("broken")))
        sim.run()
        assert log == ["broken"]
