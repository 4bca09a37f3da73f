"""Generated interleavings over ``ClusterPool``: the backlog's laws.

A Hypothesis state machine drives a real :class:`ClusterPool` on its
own event loop, with fake worker connections that keep every frame
written to them.  Its rules submit jobs, register workers, complete
held leases, drop workers, release (drain) a worker's leases and
cancel jobs.  After every step the pool must keep each owed spec in
exactly one place, deliver nothing twice, grant nothing to a worker
that released its leases, hand fresh specs out in submit order, keep
requeued and released specs ahead of never-leased ones, and leave no
worker idle while owed work waits.
"""

import asyncio
import itertools
import json
import os

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster.chaos import ChaosMonkey
from repro.cluster.coordinator import ClusterPool
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service.server import Job

#: item keys: every spec of every run is distinct
_KEYS = itertools.count()


class RecordingWriter:
    """A worker connection that keeps every write it is handed; each
    decoded frame also lands on the shared ``wire`` log, in order."""

    def __init__(self, wire):
        self.wire = wire
        self.writes = []
        self.frames = []

    def write(self, data):
        self.writes.append(data)
        for line in data.splitlines():
            frame = json.loads(line)
            self.frames.append(frame)
            self.wire.append(frame)

    async def drain(self):
        pass

    def close(self):
        pass


def spec_for(key):
    return ScenarioSpec("_pool_model", {"i": key})


def key_of(item):
    return item.spec.params_dict()["i"]


def leased_keys(frames):
    return [f["spec"]["params"]["i"] for f in frames if f["type"] == "lease"]


def result_for(spec):
    return ScenarioResult(name=spec.name, spec_hash=spec.content_hash,
                          params=spec.params_dict()).to_dict()


def pick(options, index):
    options = list(options)
    return options[index % len(options)]


class PoolModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        # a lease timeout no run comes near, so the monitor never
        # expires a lease; two retries, so drops also quarantine
        self.pool = ClusterPool(lease_timeout_s=1e6, max_spec_retries=2)
        self.pool.start(self.loop)
        self.wire = []
        self.writers = {}
        self.jobs = []
        self.submitted = []
        self.delivered = []
        #: worker id -> lease frames it had been sent when it released
        self.released = {}

    def teardown(self):
        self.pool.shutdown()
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()

    def run(self, coro=None):
        if coro is not None:
            self.loop.run_until_complete(coro)
        self.loop.run_until_complete(self._settle())

    async def _settle(self):
        # the dispatch tasks that worker_lost and release spawn
        idle = {asyncio.current_task(), self.pool._monitor_task}
        while tasks := asyncio.all_tasks() - idle:
            await asyncio.wait(tasks)

    def deliver(self, job, result):
        self.delivered.append(result.params["i"])

    def owed(self):
        cancelled = {spec.params_dict()["i"] for job in self.jobs
                     if job.cancelled for spec in job.specs}
        return set(self.submitted) - set(self.delivered) - cancelled

    # -- rules ----------------------------------------------------------

    @rule(size=st.integers(1, 4))
    def submit(self, size):
        keys = [next(_KEYS) for _ in range(size)]
        job = Job(id=f"job-{len(self.jobs) + 1}",
                  specs=[spec_for(key) for key in keys])
        self.jobs.append(job)
        self.submitted += keys
        self.run(self.pool.submit(job, list(job.specs), self.deliver))

    @rule(capacity=st.integers(1, 3))
    def register(self, capacity):
        writer = RecordingWriter(self.wire)
        worker = self.pool.register(f"w{len(self.writers)}", capacity,
                                    writer, asyncio.Lock())
        self.writers[worker.id] = writer
        self.run(self.pool._grant(worker))

    @precondition(lambda self: any(w.leases
                                   for w in self.pool.workers.values()))
    @rule(index=st.integers(0, 99))
    def complete(self, index):
        worker = pick((w for w in self.pool.workers.values() if w.leases),
                      index)
        lease_id = pick(worker.leases, index)
        spec = worker.leases[lease_id].spec
        self.run(self.pool.complete(worker, lease_id, result_for(spec)))

    @precondition(lambda self: self.pool.workers)
    @rule(index=st.integers(0, 99))
    def drop(self, index):
        worker = pick(self.pool.workers.values(), index)
        self.pool.worker_lost(worker.id)
        self.run()

    @precondition(lambda self: self.pool.workers)
    @rule(index=st.integers(0, 99), keep_first=st.booleans())
    def release(self, index, keep_first):
        # a draining worker may keep the lease it is already running
        worker = pick(self.pool.workers.values(), index)
        leases = list(worker.leases)[1 if keep_first else 0:]
        self.released[worker.id] = len(
            leased_keys(self.writers[worker.id].frames))
        self.pool.release(worker, leases)
        self.run()

    @precondition(lambda self: any(not j.cancelled for j in self.jobs))
    @rule(index=st.integers(0, 99))
    def cancel(self, index):
        job = pick((j for j in self.jobs if not j.cancelled), index)
        job.cancelled = True
        job.state = "cancelled"
        self.pool.purge(job)
        self.run()

    # -- invariants -----------------------------------------------------

    @invariant()
    def every_owed_item_sits_in_exactly_one_place(self):
        places = [key_of(item) for item in self.pool.queue]
        for worker in self.pool.workers.values():
            places += [key_of(item) for item in worker.leases.values()
                       if item.owed]
        assert sorted(places) == sorted(self.owed())

    @invariant()
    def every_held_lease_went_out_to_its_worker(self):
        for worker in self.pool.workers.values():
            sent = {f["lease"] for f in self.writers[worker.id].frames}
            assert set(worker.leases) <= sent

    @invariant()
    def nothing_is_delivered_twice(self):
        assert len(self.delivered) == len(set(self.delivered))

    @invariant()
    def a_released_worker_gets_no_new_lease(self):
        for worker_id, sent in self.released.items():
            assert len(leased_keys(self.writers[worker_id].frames)) == sent

    @invariant()
    def fresh_items_are_first_granted_in_submit_order(self):
        first = list(dict.fromkeys(leased_keys(self.wire)))
        rank = {key: n for n, key in enumerate(self.submitted)}
        assert [rank[k] for k in first] == sorted(rank[k] for k in first)

    @invariant()
    def no_never_leased_item_sits_ahead_of_a_returned_one(self):
        leased = set(leased_keys(self.wire))
        flags = [key_of(item) in leased for item in self.pool.queue]
        assert flags == sorted(flags, reverse=True)

    @invariant()
    def no_worker_idles_while_owed_work_waits(self):
        if any(item.owed for item in self.pool.queue):
            for worker in self.pool.workers.values():
                assert (worker.draining
                        or len(worker.leases) >= worker.capacity)


PoolModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None,
)
TestPoolModel = PoolModel.TestCase


class _Exited(Exception):
    pass


class TestGrantWrites:
    """One grant is one write: a worker with room for several leases
    has all of them on the wire before it starts the first."""

    def grant(self, writer, capacity, specs, chaos=None):
        async def grant():
            pool = ClusterPool(chaos=chaos)
            pool.start(asyncio.get_running_loop())
            job = Job(id="job-1", specs=[spec_for(next(_KEYS))
                                         for _ in range(specs)])
            # queued before anyone registers, then one grant
            await pool.submit(job, job.specs, lambda job, result: None)
            worker = pool.register("w", capacity, writer, asyncio.Lock())
            try:
                await pool._grant(worker)
            finally:
                pool.shutdown()
            return worker

        return asyncio.run(grant())

    def test_a_grant_sends_all_its_leases_in_one_write(self):
        writer = RecordingWriter([])
        worker = self.grant(writer, capacity=3, specs=5)
        assert len(writer.writes) == 1
        assert [f["type"] for f in writer.frames] == ["lease"] * 3
        assert {f["lease"] for f in writer.frames} == set(worker.leases)

    def test_kill_pool_counts_every_lease_after_the_write(self,
                                                          monkeypatch):
        codes = []

        def exit_(code):
            codes.append(code)
            raise _Exited

        monkeypatch.setattr(os, "_exit", exit_)
        writer = RecordingWriter([])
        with pytest.raises(_Exited):
            self.grant(writer, capacity=3, specs=3,
                       chaos=ChaosMonkey.parse("kill-pool@3"))
        # the third lease fired it, after all three went out
        assert codes == [86]
        assert len(writer.writes) == 1 and len(writer.frames) == 3
