"""Unit tests for the simulation kernel core."""

import pytest

from repro.sim.core import Event, SimulationError, Simulator, Timeout


class TestSimulatorClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_empty_returns_current_time(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_run_until_advances_clock_with_empty_queue(self):
        sim = Simulator()
        assert sim.run(until=50.0) == 50.0
        assert sim.now == 50.0

    def test_schedule_executes_at_delay(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10.0]

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(7.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_orders_same_time_events(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("low"), priority=1)
        sim.schedule(5.0, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append("early"))
        sim.schedule(100.0, lambda: fired.append("late"))
        sim.run(until=50.0)
        assert fired == ["early"]
        assert sim.now == 50.0
        sim.run()
        assert fired == ["early", "late"]

    def test_events_executed_counter(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.events_executed == 3

    def test_peek_returns_next_event_time(self):
        sim = Simulator()
        sim.schedule(42.0, lambda: None)
        assert sim.peek() == 42.0

    def test_peek_empty_is_infinite(self):
        assert Simulator().peek() == float("inf")

    def test_run_steps_limits_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        executed = sim.run_steps(4)
        assert executed == 4
        assert fired == [0, 1, 2, 3]

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(5.0, lambda: times.append(sim.now))

        sim.schedule(10.0, outer)
        sim.run()
        assert times == [10.0, 15.0]


class TestRunStepsHorizon:
    def test_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        for delay in (10.0, 20.0, 100.0):
            sim.schedule(delay, lambda d=delay: fired.append(d))
        executed = sim.run_steps(10, until=50.0)
        assert executed == 2
        assert fired == [10.0, 20.0]
        assert sim.now == 50.0  # clock advanced exactly to the horizon

    def test_until_not_advanced_when_budget_exhausted(self):
        sim = Simulator()
        for delay in (10.0, 20.0, 30.0):
            sim.schedule(delay, lambda: None)
        executed = sim.run_steps(1, until=50.0)
        assert executed == 1
        assert sim.now == 10.0  # eligible events remain; clock stays put

    def test_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        assert sim.run_steps(5, until=42.0) == 0
        assert sim.now == 42.0

    def test_stepped_matches_free_running(self):
        """Stepping one event at a time replays run() exactly."""

        def build(sim, log):
            def proc(name, delay):
                for _ in range(4):
                    yield Timeout(delay)
                    log.append((name, sim.now))

            sim.spawn(proc("a", 3.0))
            sim.spawn(proc("b", 2.0))

        free_sim = Simulator()
        free_log = []
        build(free_sim, free_log)
        free_sim.run(until=9.0)

        step_sim = Simulator()
        step_log = []
        build(step_sim, step_log)
        while step_sim.run_steps(1, until=9.0):
            pass
        assert step_log == free_log
        assert step_sim.now == free_sim.now
        assert step_sim.events_executed == free_sim.events_executed


class TestSameTimeBatching:
    def test_callbacks_scheduled_mid_batch_join_it(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: (order.append("first"),
                                   sim.schedule(0.0, lambda: order.append("nested"))))
        sim.schedule(5.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "nested"]
        assert sim.now == 5.0

    def test_event_trigger_outside_run_dispatches_on_next_run(self):
        sim = Simulator()
        seen = []
        event = sim.event()
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed("x")
        sim.run()
        assert seen == ["x"]
        # Callbacks added after triggering never fire (unchanged rule).
        event.callbacks.append(lambda ev: seen.append("late"))
        sim.run()
        assert seen == ["x"]

    def test_callback_raising_mid_batch_is_counted_and_the_rest_stay_queued(self):
        sim = Simulator()
        order = []

        def boom():
            order.append("boom")
            raise RuntimeError("boom")

        event = sim.event()
        event.callbacks.append(lambda ev: order.append("event"))
        sim.schedule(5.0, lambda: order.append("first"))
        sim.schedule(5.0, boom)
        sim.schedule(5.0, lambda: order.append("third"))
        sim.schedule(5.0, event.succeed)
        sim.schedule(9.0, lambda: order.append("later"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert order == ["first", "boom"]
        assert sim.events_executed == 2
        assert (sim.now, sim.peek()) == (5.0, 5.0)
        assert sim.run() == 9.0
        assert order == ["first", "boom", "third", "event", "later"]
        assert sim.events_executed == 6


class TestEvent:
    def test_event_starts_pending(self):
        event = Simulator().event("e")
        assert not event.triggered

    def test_succeed_sets_value(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(99)
        assert event.triggered
        assert event.ok
        assert event.value == 99

    def test_fail_requires_exception(self):
        event = Simulator().event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_fail_records_not_ok(self):
        event = Simulator().event()
        event.fail(RuntimeError("boom"))
        assert event.triggered
        assert not event.ok

    def test_double_trigger_rejected(self):
        event = Simulator().event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_ok_before_trigger_raises(self):
        event = Simulator().event("pending")
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_callbacks_fire_on_run(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed("payload")
        assert seen == []  # callbacks are scheduled, not immediate
        sim.run()
        assert seen == ["payload"]


class TestTimeout:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-0.5)

    def test_zero_delay_allowed(self):
        assert Timeout(0).delay == 0.0

    def test_value_carried(self):
        assert Timeout(1, value="x").value == "x"


class TestCombinators:
    def test_all_of_waits_for_every_event(self):
        sim = Simulator()
        events = [sim.event(f"e{i}") for i in range(3)]
        combined = sim.all_of(events)
        results = []
        combined.callbacks.append(lambda ev: results.append(ev.value))
        events[1].succeed("b")
        events[0].succeed("a")
        sim.run()
        assert results == []
        events[2].succeed("c")
        sim.run()
        assert results == [["a", "b", "c"]]

    def test_all_of_empty_succeeds_immediately(self):
        sim = Simulator()
        combined = sim.all_of([])
        assert combined.triggered
        assert combined.value == []

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        events = [sim.event(f"e{i}") for i in range(3)]
        combined = sim.any_of(events)
        events[2].succeed("winner")
        sim.run()
        assert combined.triggered
        assert combined.value == "winner"

    def test_any_of_with_already_triggered_event(self):
        sim = Simulator()
        done = sim.event()
        done.succeed(7)
        combined = sim.any_of([done, sim.event()])
        assert combined.triggered
        assert combined.value == 7


class TestDeterminism:
    def test_identical_runs_replay_identically(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def proc(name, delay):
                for _ in range(3):
                    yield Timeout(delay)
                    log.append((name, sim.now))

            sim.spawn(proc("a", 3.0))
            sim.spawn(proc("b", 2.0))
            sim.run()
            return log

        assert build_and_run() == build_and_run()
