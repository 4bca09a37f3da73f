"""Journal round-trips: fold a log back into exactly the state written."""

import json

from repro.cluster.journal import JobJournal
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec


def _result_for(spec, **overrides):
    fields = dict(
        name=spec.name,
        spec_hash=spec.content_hash,
        params=spec.params_dict(),
        verdict={"ok": True},
        rows=[{"a": 1}],
    )
    fields.update(overrides)
    return ScenarioResult(**fields)


def _specs(n):
    return [ScenarioSpec("_j", {"i": i}) for i in range(n)]


class TestRoundTrip:
    def test_submit_complete_done_fold_back(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        specs = _specs(3)
        journal.record_submit("job-1", specs)
        journal.record_lease("job-1", specs[0].content_hash, "w1")
        journal.record_complete("job-1", _result_for(specs[0]))
        journal.close()

        state = JobJournal.replay(path)
        job = state.jobs["job-1"]
        assert not job.finished
        assert [s.content_hash for s in job.specs] == [
            s.content_hash for s in specs
        ]
        assert job.completed_hashes() == {specs[0].content_hash}
        assert [s.content_hash for s in job.pending_specs()] == [
            s.content_hash for s in specs[1:]
        ]
        assert state.leases == [
            ("job-1", specs[0].content_hash, "w1")
        ]

    def test_pre_bridge_assign_records_join_the_lease_trail(self, tmp_path):
        # a federation front from before pool bridges journaled its pool
        # grants as assign records; such a journal still resumes
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        specs = _specs(2)
        journal.record_submit("job-1", specs)
        journal.close()
        with path.open("a") as fh:
            fh.write(json.dumps({"e": "assign", "job": "job-1",
                                 "spec": specs[0].content_hash,
                                 "pool": "pool-1"}) + "\n")
        state = JobJournal.replay(path)
        assert state.leases == [
            ("job-1", specs[0].content_hash, "pool:pool-1")
        ]
        assert len(state.jobs["job-1"].pending_specs()) == 2

    def test_job_done_marks_finished(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        specs = _specs(1)
        journal.record_submit("job-1", specs)
        journal.record_complete("job-1", _result_for(specs[0]))
        journal.record_job_done("job-1", "done")
        journal.close()
        state = JobJournal.replay(path)
        assert state.jobs["job-1"].finished
        assert state.unfinished() == []

    def test_results_replay_in_completion_order(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        specs = _specs(3)
        journal.record_submit("job-1", specs)
        for spec in (specs[2], specs[0], specs[1]):
            journal.record_complete("job-1", _result_for(spec))
        journal.close()
        job = JobJournal.replay(path).jobs["job-1"]
        assert [r.spec_hash for r in job.results] == [
            specs[2].content_hash,
            specs[0].content_hash,
            specs[1].content_hash,
        ]

    def test_duplicate_completions_are_idempotent(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        specs = _specs(1)
        journal.record_submit("job-1", specs)
        journal.record_complete("job-1", _result_for(specs[0]))
        journal.record_complete("job-1", _result_for(specs[0]))
        journal.close()
        job = JobJournal.replay(path).jobs["job-1"]
        assert len(job.results) == 1
        assert job.pending_specs() == []

    def test_max_job_number_and_resume_marker(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-2", _specs(1))
        journal.record_submit("job-7", _specs(1))
        journal.record_resume()
        journal.close()
        state = JobJournal.replay(path)
        assert state.max_job_number() == 7
        assert state.resumes == 1


class TestCrashTolerance:
    def test_missing_file_is_empty_state(self, tmp_path):
        state = JobJournal.replay(tmp_path / "nonexistent.jsonl")
        assert state.jobs == {} and state.resumes == 0

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        specs = _specs(2)
        journal.record_submit("job-1", specs)
        journal.record_complete("job-1", _result_for(specs[0]))
        journal.close()
        with path.open("a") as fh:
            fh.write('{"e": "complete", "job": "job-1", "resu')  # crash
        state = JobJournal.replay(path)
        assert state.dropped_lines == 1
        job = state.jobs["job-1"]
        assert len(job.results) == 1
        assert len(job.pending_specs()) == 1

    def test_corrupt_middle_line_does_not_poison_recovery(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        specs = _specs(1)
        journal.record_submit("job-1", specs)
        journal.close()
        lines = path.read_text().splitlines()
        lines.insert(0, "garbage not json")
        lines.insert(1, json.dumps({"no-e-key": True}))
        path.write_text("\n".join(lines) + "\n")
        journal = JobJournal(path)
        journal.record_complete("job-1", _result_for(specs[0]))
        journal.close()
        state = JobJournal.replay(path)
        assert state.dropped_lines == 2
        assert state.jobs["job-1"].pending_specs() == []

    def test_events_for_unjournaled_jobs_are_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.record_complete("job-9", _result_for(_specs(1)[0]))
        journal.record_job_done("job-9", "done")
        journal.close()
        state = JobJournal.replay(path)
        assert state.jobs == {}

    def test_appends_survive_reopen(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs(2)
        journal = JobJournal(path)
        journal.record_submit("job-1", specs)
        journal.close()
        journal = JobJournal(path)  # a restarted coordinator appends
        journal.record_complete("job-1", _result_for(specs[1]))
        journal.close()
        job = JobJournal.replay(path).jobs["job-1"]
        assert job.completed_hashes() == {specs[1].content_hash}
