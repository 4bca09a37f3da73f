"""The writer's in-memory fold equals replay, and every torn tail replays.

Random sequences of journal operations — submit (with duplicate
specs), lease, complete (duplicates and unknown jobs included),
job-done, resume (a reopened journal) and explicit compact — run
against a real :class:`JobJournal`.  After every step the journal's
in-memory state must agree with :meth:`JobJournal.replay` of its
files.  The final journal is then cut at every record boundary and
inside records, as a crash mid-write leaves it, and must replay.
"""

import random
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.cluster.journal import JobJournal
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec

SPECS = [ScenarioSpec("_jp", {"i": i}) for i in range(4)]
#: job indexes past the submitted ones name jobs the journal never saw
JOB_SLOTS = 6

operations = st.one_of(
    st.tuples(st.just("submit"),
              st.lists(st.sampled_from(SPECS), min_size=1, max_size=5)),
    st.tuples(st.just("lease"), st.integers(0, JOB_SLOTS - 1),
              st.sampled_from(SPECS)),
    st.tuples(st.just("complete"), st.integers(0, JOB_SLOTS - 1),
              st.sampled_from(SPECS)),
    st.tuples(st.just("job-done"), st.integers(0, JOB_SLOTS - 1),
              st.sampled_from(["done", "cancelled", "error"])),
    st.tuples(st.just("resume")),
    st.tuples(st.just("compact")),
)


def result_for(spec):
    return ScenarioResult(name=spec.name, spec_hash=spec.content_hash,
                          params=spec.params_dict(), rows=[{"ok": 1}])


def jobs_of(state):
    return {
        job.id: ([s.content_hash for s in job.specs],
                 [r.spec_hash for r in job.results],
                 job.state)
        for job in state.jobs.values()
    }


class CheckedJournal(JobJournal):
    """Right after each compaction, automatic or explicit, replay holds
    exactly the in-memory jobs."""

    def compact(self):
        info = super().compact()
        assert jobs_of(JobJournal.replay(self.path)) == jobs_of(self.state)
        return info


def check_against_replay(journal):
    memory = journal.state
    replayed = JobJournal.replay(journal.path)
    mine, theirs = jobs_of(memory), jobs_of(replayed)
    for job_id, job in mine.items():
        assert theirs[job_id] == job
    for job_id in theirs.keys() - mine.keys():
        # trimmed from memory as it finished, beyond keep_finished
        assert replayed.jobs[job_id].finished
    assert memory.resumes == replayed.resumes
    assert memory.generation == replayed.generation
    assert memory.max_job_number() == replayed.max_job_number()
    live = len(memory.unfinished())
    assert len(memory.jobs) <= live + journal.keep_finished


def check_torn_tails(path, rng):
    """Cut the journal at every record boundary past the marker and at
    random offsets inside records: each cut must replay, and a cut
    inside a record equals a cut at its start plus one dropped line."""
    raw = path.read_bytes()
    starts, offset = [], 0
    for line in raw.splitlines(keepends=True):
        starts.append((offset, offset + len(line.rstrip(b"\n"))))
        offset += len(line)
    if raw.startswith(b'{"e":"compacted"'):
        starts = starts[1:]
    work = Path(tempfile.mkdtemp(dir=path.parent))
    cut = work / path.name
    snapshot = path.with_name(path.name + ".snapshot")
    if snapshot.exists():
        shutil.copy(snapshot, work / snapshot.name)

    def replay_cut(at):
        cut.write_bytes(raw[:at])
        return JobJournal.replay(cut)

    for start, end in starts + [(len(raw), len(raw))]:
        at_start = replay_cut(start)
        if end - start < 2:
            continue
        torn = replay_cut(rng.randrange(start + 1, end))
        assert jobs_of(torn) == jobs_of(at_start)
        assert torn.dropped_lines == at_start.dropped_lines + 1


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(operations, max_size=30),
    compact_every=st.sampled_from([None, 2, 5]),
    keep_finished=st.sampled_from([1, 64]),
    cut_seed=st.integers(0, 2**32 - 1),
)
def test_memory_matches_replay_and_torn_tails_replay(
    steps, compact_every, keep_finished, cut_seed
):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.jsonl"

        def open_journal():
            return CheckedJournal(path, compact_every=compact_every,
                                  keep_finished=keep_finished)

        journal = open_journal()
        submitted = 0
        for step in steps:
            kind = step[0]
            if kind == "submit":
                submitted += 1
                journal.record_submit(f"job-{submitted}", step[1])
            elif kind == "lease":
                journal.record_lease(f"job-{step[1] + 1}",
                                     step[2].content_hash, "w1")
            elif kind == "complete":
                journal.record_complete(f"job-{step[1] + 1}",
                                        result_for(step[2]))
            elif kind == "job-done":
                journal.record_job_done(f"job-{step[1] + 1}", step[2])
            elif kind == "resume":
                journal.close()
                journal = open_journal()
                journal.record_resume()
            else:
                journal.compact()
            check_against_replay(journal)
        journal.close()
        if path.exists():
            # record lengths carry timestamps, so offsets come from a
            # seeded generator rather than from size-bounded draws
            check_torn_tails(path, random.Random(cut_seed))
