"""Unit tests for rate-monotonic schedulability analysis."""

import math

import pytest

from repro.rtos.schedulability import (
    PeriodicTaskSpec,
    max_context_switch_cost,
    response_time_analysis,
    schedulable,
)


class TestSchedulability:
    def test_light_set_schedulable(self):
        tasks = [
            PeriodicTaskSpec("a", period=10, wcet=3),
            PeriodicTaskSpec("b", period=20, wcet=5),
        ]
        assert schedulable(tasks)

    def test_rta_worked_example(self):
        """T=(50,100,200), C=(12,40,35), hand-iterated fixpoints:
        R1 = 12;
        R2: 40 -> 52 -> 64 -> 64 (one extra t1 preemption past t=50);
        R3: 35 -> 87 -> 99 -> 99."""
        tasks = [
            PeriodicTaskSpec("t1", period=50, wcet=12),
            PeriodicTaskSpec("t2", period=100, wcet=40),
            PeriodicTaskSpec("t3", period=200, wcet=35),
        ]
        responses = response_time_analysis(tasks)
        assert responses["t1"] == 12
        assert responses["t2"] == 64
        assert responses["t3"] == 99

    def test_overutilized_set_unschedulable(self):
        tasks = [
            PeriodicTaskSpec("a", period=10, wcet=6),
            PeriodicTaskSpec("b", period=10, wcet=6),
        ]
        assert not schedulable(tasks)
        assert response_time_analysis(tasks)["b"] == math.inf

    def test_context_switch_cost_can_break_schedulability(self):
        """The paper's hardware-OS-services argument, quantified: this
        set schedules with a cheap (hardware) scheduler but not with an
        expensive software one."""
        tasks = [
            PeriodicTaskSpec("fast", period=100, wcet=40),
            PeriodicTaskSpec("slow", period=250, wcet=60),
        ]
        assert schedulable(tasks, context_switch=1.0)
        assert not schedulable(tasks, context_switch=30.0)
        limit = max_context_switch_cost(tasks)
        assert 1.0 < limit < 30.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PeriodicTaskSpec("bad", period=0, wcet=1)
        with pytest.raises(ValueError):
            PeriodicTaskSpec("bad", period=10, wcet=20)
