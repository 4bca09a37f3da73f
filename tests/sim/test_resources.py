"""Unit tests for Resource and Store."""

import pytest

from repro.sim.core import SimulationError, Simulator, Timeout
from repro.sim.resources import Resource, Store


class TestResource:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)

    def test_grant_immediate_when_free(self):
        sim = Simulator()
        res = Resource(sim)
        grant = res.request()
        assert grant.triggered
        assert res.in_use == 1

    def test_release_without_hold_raises(self):
        res = Resource(Simulator())
        with pytest.raises(SimulationError):
            res.release()

    def test_fifo_queueing(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def worker(i):
            yield res.request()
            order.append(i)
            yield Timeout(1)
            res.release()

        for i in range(4):
            sim.spawn(worker(i))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_capacity_two_admits_two(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        finish = []

        def worker(i):
            yield res.request()
            yield Timeout(10)
            res.release()
            finish.append((i, sim.now))

        for i in range(4):
            sim.spawn(worker(i))
        sim.run()
        assert [t for _i, t in finish] == [10.0, 10.0, 20.0, 20.0]

    def test_request_when_full_waits_for_a_release(self):
        sim = Simulator()
        res = Resource(sim)
        res.request()
        waiting = res.request()
        assert not waiting.triggered
        res.release()
        assert waiting.triggered

    def test_release_hands_the_slot_to_the_oldest_waiter(self):
        sim = Simulator()
        res = Resource(sim)
        res.request()
        first, second = res.request(), res.request()
        res.release()
        # The slot passes straight on: still held, by the first waiter.
        assert res.in_use == 1
        assert first.triggered and not second.triggered

    def test_grant_delivers_the_resource(self):
        sim = Simulator()
        res = Resource(sim)
        got = []

        def worker():
            got.append((yield res.request()))
            res.release()

        sim.spawn(worker())
        sim.run()
        assert got == [res]

    def test_waiter_resumes_at_the_release_time(self):
        sim = Simulator()
        res = Resource(sim)
        starts = []

        def worker(hold):
            yield res.request()
            starts.append(sim.now)
            yield Timeout(hold)
            res.release()

        for hold in (3, 5, 2):
            sim.spawn(worker(hold))
        sim.run()
        assert starts == [0.0, 3.0, 8.0]
        assert sim.now == 10.0

    def test_every_slot_is_free_once_all_holders_release(self):
        sim = Simulator()
        res = Resource(sim, capacity=3)

        def worker(i):
            yield res.request()
            yield Timeout(1 + i % 2)
            res.release()

        for i in range(7):
            sim.spawn(worker(i))
        sim.run()
        assert res.in_use == 0

    def test_release_error_names_the_resource(self):
        res = Resource(Simulator(), name="bus")
        with pytest.raises(SimulationError, match="'bus'"):
            res.release()


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("item")
        got = store.get()
        assert got.triggered
        assert got.value == "item"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        log = []

        def consumer():
            item = yield store.get()
            log.append((item, sim.now))

        def producer():
            yield Timeout(7)
            store.put("late")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert log == [("late", 7.0)]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.put(i)
        got = [store.get().value for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_bounded_put_blocks_when_full(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        log = []

        def producer():
            for i in range(4):
                yield store.put(i)
                log.append((i, sim.now))

        def consumer():
            yield Timeout(10)
            yield store.get()
            yield store.get()

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        # First two puts immediate; the rest wait for the consumer at t=10.
        assert log[0][1] == 0.0 and log[1][1] == 0.0
        assert log[2][1] == 10.0 and log[3][1] == 10.0

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Store(Simulator(), capacity=0)

    def test_put_hands_directly_to_waiting_getter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        log = []

        def consumer():
            item = yield store.get()
            log.append(item)

        sim.spawn(consumer())
        sim.run()  # consumer now waiting
        store.put("direct")
        sim.run()
        assert log == ["direct"]
        assert len(store) == 0

    def test_get_on_an_empty_store_stays_pending(self):
        store = Store(Simulator())
        pending = store.get()
        assert not pending.triggered
        assert len(store) == 0

    def test_waiting_getters_are_served_in_arrival_order(self):
        sim = Simulator()
        store = Store(sim)
        getters = [store.get() for _ in range(3)]
        for item in ("a", "b", "c"):
            store.put(item)
        assert [g.value for g in getters] == ["a", "b", "c"]
        assert len(store) == 0

    def test_put_into_a_full_store_stays_pending_until_a_get(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        assert store.put("kept").triggered
        blocked = store.put("waiting")
        assert not blocked.triggered
        assert store.get().value == "kept"
        assert blocked.triggered

    def test_a_get_admits_the_oldest_blocked_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        for item in range(5):
            store.put(item)
        assert len(store) == 2
        drained = [store.get().value for _ in range(5)]
        # Blocked putters enter in arrival order as space frees up.
        assert drained == [0, 1, 2, 3, 4]
        assert len(store) == 0

    def test_a_get_keeps_a_full_store_full_while_putters_wait(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        for item in range(4):
            store.put(item)
        store.get()
        assert len(store) == 2

    def test_len_counts_buffered_items(self):
        store = Store(Simulator())
        for item in range(3):
            store.put(item)
        assert len(store) == 3
        store.get()
        assert len(store) == 2

    def test_an_unbounded_store_accepts_every_put_at_once(self):
        store = Store(Simulator())
        puts = [store.put(i) for i in range(1000)]
        assert all(put.triggered for put in puts)
        assert len(store) == 1000
