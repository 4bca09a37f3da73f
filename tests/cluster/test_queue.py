"""Work-stealing queue laws: ownership, balance, stealing, eviction."""

from repro.cluster.queue import WorkStealingQueue


def drain(queue, worker_id):
    items = []
    while True:
        item = queue.pop(worker_id)
        if item is None:
            return items
        items.append(item)


class TestBacklog:
    def test_items_without_workers_go_to_the_backlog(self):
        queue = WorkStealingQueue()
        assert queue.push("a") == ""
        assert queue.push("b") == ""
        assert queue.pending() == 2
        assert queue.depths() == {"": 2}

    def test_backlog_drains_fifo_to_whoever_asks(self):
        queue = WorkStealingQueue()
        for item in "abc":
            queue.push(item)
        queue.add_worker("w1")
        assert [queue.pop("w1") for _ in range(3)] == list("abc")
        assert queue.pop("w1") is None

    def test_push_front_jumps_the_backlog(self):
        queue = WorkStealingQueue()
        queue.push("fresh")
        queue.push_front("requeued")
        queue.add_worker("w1")
        assert queue.pop("w1") == "requeued"
        assert queue.pop("w1") == "fresh"


class TestOwnership:
    def test_owner_pops_its_own_deque_in_order(self):
        queue = WorkStealingQueue()
        queue.add_worker("w1")
        for item in "abc":
            queue.push(item, "w1")
        assert drain(queue, "w1") == list("abc")

    def test_unassigned_pushes_balance_to_the_shortest_deque(self):
        queue = WorkStealingQueue()
        queue.add_worker("w1")
        queue.add_worker("w2")
        landed = [queue.push(i) for i in range(4)]
        # shortest-first with first-registered tiebreak alternates
        assert landed == ["w1", "w2", "w1", "w2"]

    def test_explicit_unknown_worker_falls_back_to_balancing(self):
        queue = WorkStealingQueue()
        queue.add_worker("w1")
        assert queue.push("a", "ghost") == "w1"


class TestStealing:
    def test_idle_worker_steals_from_the_back_of_the_longest(self):
        queue = WorkStealingQueue()
        queue.add_worker("busy")
        queue.add_worker("idle")
        for item in "abcd":
            queue.push(item, "busy")
        assert queue.pop("idle") == "d"      # thief takes the cold tail
        assert queue.pop("busy") == "a"      # owner's front undisturbed
        assert queue.pop("idle") == "c"
        assert queue.pop("busy") == "b"
        assert queue.pop("idle") is None

    def test_steal_victim_is_the_longest_deque(self):
        queue = WorkStealingQueue()
        for worker in ("w1", "w2", "w3"):
            queue.add_worker(worker)
        queue.push("short", "w1")
        for item in ("x", "y", "z"):
            queue.push(item, "w2")
        assert queue.pop("w3") == "z"  # w2 is longest; its back goes first

    def test_own_work_beats_stealing(self):
        queue = WorkStealingQueue()
        queue.add_worker("w1")
        queue.add_worker("w2")
        queue.push("mine", "w1")
        for item in ("x", "y", "z"):
            queue.push(item, "w2")
        assert queue.pop("w1") == "mine"


class TestEviction:
    def test_removed_workers_leftovers_return_to_the_backlog(self):
        queue = WorkStealingQueue()
        queue.add_worker("w1")
        for item in "abc":
            queue.push(item, "w1")
        assert queue.remove_worker("w1") == list("abc")
        assert queue.pending() == 3
        queue.add_worker("w2")
        assert drain(queue, "w2") == list("abc")

    def test_purge_drops_matching_items_from_backlog_and_deques(self):
        queue = WorkStealingQueue()
        queue.push("x1")
        queue.push("a1")
        queue.add_worker("w1")
        for item in ("x2", "a2", "x3", "a3"):
            queue.push(item, "w1")
        queue.purge(lambda item: item.startswith("x"))
        assert queue.pending() == 3
        assert drain(queue, "w1") == ["a2", "a3", "a1"]

    def test_removing_unknown_worker_is_harmless(self):
        queue = WorkStealingQueue()
        assert queue.remove_worker("ghost") == []

    def test_len_counts_backlog_and_deques(self):
        queue = WorkStealingQueue()
        queue.push("backlogged")
        queue.add_worker("w1")
        queue.push("owned", "w1")
        assert len(queue) == 2
