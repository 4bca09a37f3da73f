"""Journal compaction: snapshots, crash windows, O(live) resume, O(N) cost.

The acceptance bar: after a compaction, ``--resume`` replay folds a
number of records proportional to *live* jobs — asserted literally via
``JournalState.replayed_records``; a crash at either rename inside a
compaction loses no job; a torn or missing snapshot degrades to
folding the tail journal instead of failing; and the entries all of
one job's snapshots write grow linearly with the job's size.
"""

import json
import os
import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.journal import JobJournal
from repro.cluster.worker import BackgroundWorker
from repro.engine.executor import run_spec
from repro.engine.registry import scenario, unregister
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer


@pytest.fixture(scope="module", autouse=True)
def compaction_scenarios():
    @scenario("_cp_sq", params={"k": 1})
    def _sq(k=1):
        return {"rows": [{"k": k, "sq": k * k}], "verdict": {"ok": True}}

    yield
    unregister("_cp_sq")


def specs_for(ks):
    return [ScenarioSpec("_cp_sq", {"k": k}) for k in ks]


class SimulatedCrash(Exception):
    """The process dies here."""


def crash_on_call(n):
    """An ``os.replace`` that works until its ``n``-th call, which
    raises instead: compaction's first call renames the snapshot, its
    second swaps the journal."""
    real = os.replace
    calls = []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == n:
            raise SimulatedCrash(f"killed before renaming onto {dst}")
        real(src, dst)

    return replace


def summary(state):
    """Per job: specs, results in completion order, pending specs, and
    state — everything a resume acts on."""
    return {
        job.id: (
            [s.content_hash for s in job.specs],
            [r.spec_hash for r in job.results],
            [s.content_hash for s in job.pending_specs()],
            job.state,
        )
        for job in state.jobs.values()
    }


class TestCompaction:
    def test_compact_preserves_pending_and_banked_results(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        specs = specs_for(range(6))
        journal.record_submit("job-1", specs)
        for spec in specs[:4]:
            journal.record_lease("job-1", spec.content_hash, "w1")
            journal.record_complete("job-1", run_spec(spec))
        info = journal.compact()
        journal.close()
        assert info["generation"] == 1
        assert info["live_jobs"] == 1

        state = JobJournal.replay(tmp_path / "j.jsonl")
        assert state.from_snapshot and not state.torn_snapshot
        job = state.jobs["job-1"]
        assert len(job.results) == 4
        assert [s.content_hash for s in job.pending_specs()] == [
            s.content_hash for s in specs[4:]
        ]

    def test_replay_work_is_proportional_to_live_jobs(self, tmp_path):
        """The tentpole number: a long history folds to O(live) records."""
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        # 30 finished jobs of history plus one live job
        for n in range(1, 31):
            spec = ScenarioSpec("_cp_sq", {"k": n})
            journal.record_submit(f"job-{n}", [spec])
            journal.record_lease(f"job-{n}", spec.content_hash, "w1")
            journal.record_complete(f"job-{n}", run_spec(spec))
            journal.record_job_done(f"job-{n}", "done")
        live = specs_for([100, 101, 102])
        journal.record_submit("job-31", live)

        uncompacted = JobJournal.replay(path)
        assert uncompacted.replayed_records == 30 * 4 + 1

        journal.compact()
        journal.close()
        compacted = JobJournal.replay(path)
        # the tail holds exactly one record: the generation marker
        assert compacted.replayed_records == 1
        assert compacted.from_snapshot
        assert len(compacted.jobs["job-31"].pending_specs()) == 3

    def test_appends_after_compaction_fold_on_top_of_the_snapshot(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        specs = specs_for(range(4))
        journal.record_submit("job-1", specs)
        journal.record_complete("job-1", run_spec(specs[0]))
        journal.compact()
        # post-compaction life continues in the tail
        journal.record_complete("job-1", run_spec(specs[1]))
        journal.record_resume()
        journal.close()

        state = JobJournal.replay(path)
        assert state.from_snapshot
        assert state.replayed_records == 3  # marker + complete + resume
        assert state.resumes == 1
        assert len(state.jobs["job-1"].results) == 2
        assert len(state.jobs["job-1"].pending_specs()) == 2

    def test_auto_compaction_triggers_on_the_record_threshold(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, compact_every=5)
        specs = specs_for(range(8))
        journal.record_submit("job-1", specs)          # 1 record
        for spec in specs[:6]:                         # 6 more
            journal.record_complete("job-1", run_spec(spec))
        journal.close()
        assert journal.last_compaction is not None
        assert journal.snapshot_path.exists()
        state = JobJournal.replay(path)
        assert state.generation >= 1
        assert len(state.jobs["job-1"].results) == 6

    def test_torn_snapshot_falls_back_to_the_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        specs = specs_for(range(3))
        journal.record_submit("job-1", specs)
        journal.compact()
        journal.record_resume()
        journal.close()
        # corrupt the snapshot: replay must degrade, not die
        journal.snapshot_path.write_text('{"format": 1, "gener')
        state = JobJournal.replay(path)
        assert state.torn_snapshot and not state.from_snapshot
        assert state.resumes == 1          # the tail still folded
        assert state.jobs == {}            # history is gone, flagged

    def test_snapshot_nested_past_the_parser_limit_reads_as_torn(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", specs_for([1]))
        journal.compact()
        journal.record_resume()
        journal.close()
        depth = 100_000
        journal.snapshot_path.write_text(
            '{"format": %d, "generation": 1, "jobs": %s}'
            % (JobJournal.SNAPSHOT_FORMAT, "[" * depth + "]" * depth)
        )
        with pytest.raises(RecursionError):
            json.loads(journal.snapshot_path.read_text())
        state = JobJournal.replay(path)
        assert state.torn_snapshot and not state.from_snapshot
        assert state.resumes == 1          # the tail still folded

    def test_missing_snapshot_with_a_marker_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", specs_for([1]))
        journal.compact()
        journal.close()
        journal.snapshot_path.unlink()
        state = JobJournal.replay(path)
        assert state.torn_snapshot

    def test_crash_before_the_journal_swap_keeps_every_job(
        self, tmp_path, monkeypatch
    ):
        # crash window: the generation-2 snapshot is renamed into place
        # but the journal swap never happens (its marker still says 1);
        # that snapshot already holds the whole generation-1 tail
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", specs_for([1, 2]))
        journal.compact()
        result = run_spec(ScenarioSpec("_cp_sq", {"k": 1}))
        journal.record_complete("job-1", result)
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", crash_on_call(2))
            with pytest.raises(SimulatedCrash):
                journal.compact()
        assert json.loads(path.read_text().splitlines()[0])["gen"] == 1
        state = JobJournal.replay(path)
        assert state.generation == 2
        assert state.interrupted_compaction and not state.torn_snapshot
        job = state.jobs["job-1"]
        assert [r.spec_hash for r in job.results] == [result.spec_hash]
        assert len(job.pending_specs()) == 1

    def test_snapshot_two_generations_ahead_falls_back_to_the_tail(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", specs_for([1, 2]))
        journal.compact()
        journal.record_resume()
        journal.close()
        snapshot = json.loads(journal.snapshot_path.read_text())
        snapshot["generation"] = 3         # no compaction writes this
        journal.snapshot_path.write_text(json.dumps(snapshot))
        state = JobJournal.replay(path)
        assert state.torn_snapshot         # mismatch → tail fallback
        assert not state.from_snapshot
        assert state.resumes == 1 and state.jobs == {}

    def test_keep_finished_caps_the_snapshot_and_floors_job_numbers(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, keep_finished=2)
        for n in range(1, 6):
            spec = ScenarioSpec("_cp_sq", {"k": n})
            journal.record_submit(f"job-{n}", [spec])
            journal.record_complete(f"job-{n}", run_spec(spec))
            journal.record_job_done(f"job-{n}", "done")
        info = journal.compact()
        journal.close()
        assert info["dropped_finished_jobs"] == 3
        state = JobJournal.replay(path)
        assert set(state.jobs) == {"job-4", "job-5"}
        # dropping job-1..3 must never let their ids be recycled
        assert state.max_job_number() == 5
        assert state.job_number_floor == 5

    def test_finished_jobs_leave_memory_but_keep_their_ids(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, keep_finished=0)
        journal.record_submit("job-1", specs_for([1]))
        journal.record_submit("job-2", specs_for([2]))
        journal.record_job_done("job-2", "done")
        # trimmed as it finished, not at the next compaction
        assert set(journal.state.jobs) == {"job-1"}
        assert journal.state.max_job_number() == 2
        assert journal.compact()["dropped_finished_jobs"] == 1
        journal.close()
        state = JobJournal.replay(path)
        assert set(state.jobs) == {"job-1"}
        assert state.max_job_number() == 2

    def test_second_compaction_bumps_the_generation(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", specs_for([1, 2]))
        assert journal.compact()["generation"] == 1
        journal.record_complete(
            "job-1", run_spec(ScenarioSpec("_cp_sq", {"k": 1}))
        )
        assert journal.compact()["generation"] == 2
        journal.close()
        state = JobJournal.replay(path)
        assert state.generation == 2
        assert len(state.jobs["job-1"].results) == 1


class TestCrashInsideCompaction:
    """A crash at either rename inside compaction generations 1-3:
    before the snapshot rename, or between it and the journal swap."""

    @pytest.mark.parametrize("crash_call", [1, 2],
                             ids=["before-rename", "before-swap"])
    @pytest.mark.parametrize("generation", [1, 2, 3])
    def test_crash_loses_nothing_and_the_journal_reopens(
        self, tmp_path, monkeypatch, generation, crash_call
    ):
        path = tmp_path / "j.jsonl"
        specs = specs_for(range(8))
        journal = JobJournal(path)
        journal.record_submit("job-1", specs)
        journal.record_submit("job-2", specs_for([50]))
        journal.record_complete("job-2", run_spec(specs_for([50])[0]))
        journal.record_job_done("job-2", "done")
        # one more banked result ahead of each compaction
        for n, spec in enumerate(specs[:generation], start=1):
            journal.record_lease("job-1", spec.content_hash, "w1")
            journal.record_complete("job-1", run_spec(spec))
            if n < generation:
                journal.compact()
        journal.record_resume()
        before = JobJournal.replay(path)
        assert before.generation == generation - 1

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", crash_on_call(crash_call))
            with pytest.raises(SimulatedCrash):
                journal.compact()

        after = JobJournal.replay(path)
        assert summary(after) == summary(before)
        assert after.resumes == before.resumes == 1

        # a restarted coordinator appends; its record must replay
        reopened = JobJournal(path)
        late = run_spec(specs[generation])
        reopened.record_complete("job-1", late)
        reopened.close()
        final = summary(JobJournal.replay(path))
        spec_hashes, results, pending, state = summary(before)["job-1"]
        assert final["job-1"] == (
            spec_hashes,
            results + [late.spec_hash],
            [h for h in pending if h != late.spec_hash],
            state,
        )
        assert final["job-2"] == summary(before)["job-2"]


class TestCompactionCost:
    def test_compaction_write_volume_is_linear_in_job_size(
        self, tmp_path, monkeypatch
    ):
        """The specs and results all snapshots of one job write, for N
        and 4N specs: quadratic growth would give about 16x."""
        written = []
        real_compact = JobJournal.compact

        def counting_compact(journal):
            info = real_compact(journal)
            snapshot = json.loads(journal.snapshot_path.read_text())
            written.append(sum(len(job["specs"]) + len(job["results"])
                               for job in snapshot["jobs"]))
            return info

        monkeypatch.setattr(JobJournal, "compact", counting_compact)

        def snapshot_entries(n):
            written.clear()
            journal = JobJournal(tmp_path / f"j{n}.jsonl",
                                 compact_every=100)
            specs = specs_for(range(n))
            journal.record_submit("job-1", specs)
            for spec in specs:
                journal.record_lease("job-1", spec.content_hash, "w1")
                journal.record_complete("job-1", ScenarioResult(
                    name=spec.name, spec_hash=spec.content_hash,
                    params=spec.params_dict(), verdict={"ok": True},
                ))
            journal.close()
            return sum(written)

        small, large = snapshot_entries(200), snapshot_entries(800)
        assert small > 0
        assert large <= 5 * small, (small, large)


class TestResumeFromCompactedJournal:
    def test_resume_finishes_the_job_without_reexecution(self, tmp_path):
        """End-to-end acceptance: crash → compact → --resume → parity,
        with replay cost asserted at O(live) and zero re-executions."""
        path = tmp_path / "j.jsonl"
        specs = specs_for(range(6))
        journal = JobJournal(path)
        journal.record_submit("job-1", specs)
        done = []
        for spec in specs[:4]:
            journal.record_lease("job-1", spec.content_hash, "w-old")
            result = run_spec(spec)
            journal.record_complete("job-1", result)
            done.append(result)
        journal.compact()
        journal.close()

        resumed = ClusterCoordinator(
            port=0, journal_path=str(path), resume=True,
            lease_timeout_s=3.0,
        )
        with BackgroundServer(server=resumed) as bg:
            worker = BackgroundWorker(bg.host, bg.port,
                                      name="fresh").start()
            try:
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    merged = list(client.stream_job("job-1"))
                    assert client.last_done["total"] == 6
                    assert client.last_done["failed"] == 0
                # zero re-executions of compacted-away completions
                assert worker.worker.executed == 2
            finally:
                worker.stop()

        final = JobJournal.replay(path)
        assert final.from_snapshot
        assert final.jobs["job-1"].finished
        # the audit the chaos CI smoke scripts run: nothing leased
        # after the resume marker was already complete before it
        completed_before = {r.spec_hash for r in done}
        post = final.leases_after_last_resume()
        assert post
        assert not [
            h for (_j, h, _w) in post if h in completed_before
        ]

    def test_resumed_coordinator_keeps_compacting(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", specs_for([1, 2]))
        journal.compact()
        journal.close()

        resumed = ClusterCoordinator(
            port=0, journal_path=str(path), resume=True,
            lease_timeout_s=3.0, compact_every=4,
        )
        with BackgroundServer(server=resumed) as bg:
            worker = BackgroundWorker(bg.host, bg.port, name="w").start()
            try:
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    merged = list(client.stream_job("job-1"))
                    assert len(merged) == 2
                deadline = time.monotonic() + 5
                while (resumed.journal.last_compaction is None
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                # resume marker + 2 leases + 2 completes + job-done
                # crossed the threshold: the journal recompacted and
                # the status frame advertises it
                assert resumed.journal.last_compaction is not None
                assert resumed.journal.last_compaction["generation"] == 2
                status = resumed._cluster_status()
                assert status["last_compaction"]["generation"] == 2
            finally:
                worker.stop()
        state = JobJournal.replay(path)
        assert state.generation == 2
        assert state.jobs["job-1"].finished
