"""Append-only JSONL job journal: crash-durable coordinator state.

Every state transition the coordinator must survive is one JSON line:

``{"e": "submit", "job": .., "specs": [..]}``
    a job was accepted, with its full (already sweep-expanded,
    already shard-selected) spec list;
``{"e": "lease", "job": .., "spec": <hash>, "worker": ..}``
    a spec was leased to a worker (informational — requeue state is
    derived from submit minus complete, but the lease trail is what
    the crash-resume tests use to prove completed specs never run
    again);
``{"e": "assign", "job": .., "spec": <hash>, "pool": ..}``
    written only by federation fronts that predate pool bridges (a
    bridge's grants are plain ``lease`` records); still replayed into
    the lease trail, with ``pool:<name>`` in the worker slot, so such
    a front journal resumes and audits unchanged;
``{"e": "complete", "job": .., "result": {..}}``
    a :class:`ScenarioResult` landed; its JSON text is spliced in as
    the record's last field, and replay keeps that text as it reads it;
``{"e": "job-done", "job": .., "state": "done"|"cancelled"|"error"}``
    the job finished;
``{"e": "resume"}``
    a coordinator restarted against this journal.

:meth:`JobJournal.replay` folds the log back into per-job state: which
specs each unfinished job still owes (its *pending* set) and the
results already banked, in completion order.  A torn final line — the
signature of a crash mid-write — is tolerated and dropped.

Durability is exact: every record is flushed to the operating system
as it is written, but never fsynced.  A coordinator *process* that
dies abruptly (SIGKILL, crash) loses at most the record being written,
because the kernel still holds everything flushed; a *machine* that
loses power may lose the records still in the page cache.  Only
compaction fsyncs (see below).

The writer keeps the folded state in memory (:attr:`JobJournal.state`):
one replay seeds it when the journal opens, and every ``record_*``
call folds its record in through the same :class:`JournalState`
methods replay uses.  The state banks each result as a
:class:`~repro.engine.results.ResultRecord`, its JSON text plus the
fields the fold reads, never as a decoded result.  Finished jobs
beyond ``keep_finished`` leave it as they finish, so it holds live
jobs plus a bounded history even when compaction is off.

Compaction keeps replay O(live jobs) instead of O(history): the
in-memory state is written as one atomic JSON **snapshot** beside the
journal, and the journal itself is swapped for a fresh tail holding
only a ``{"e": "compacted", "gen": G}`` marker.  Replay loads the
snapshot and folds just the tail.  It runs on an explicit
:meth:`JobJournal.compact` call, or before an append once the tail
holds at least ``max(compact_every, specs + results in the last
snapshot)`` records.  Each snapshot is thus paid for by at least as
many appended records as it writes entries, so the total rewrite work
stays linear in the records appended, however large a job grows.

The write order — snapshot to a temp file, fsync, atomic rename,
*then* the journal swap — means a crash never leaves a torn snapshot
installed.  A crash between the rename and the swap leaves a snapshot
one generation ahead of the journal's marker (or, in the first
compaction, a journal with no marker at all): that snapshot already
holds the whole tail, so replay seeds from it and skips the tail, and
the next :class:`JobJournal` to open the pair finishes the swap before
it appends.  Any other mismatch — a missing or corrupt snapshot, or
one of some other generation — falls back to folding the tail alone,
flagged ``torn_snapshot``, rather than failing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, TextIO,
)

from repro.engine.results import ResultRecord, ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service.protocol import split_result


@dataclass
class JournaledJob:
    """One job's folded journal state.

    Bookkeeping is by content-hash *multiplicity*, not bare hash
    membership: a sweep may legitimately contain duplicate specs (e.g.
    ``--sweep seed=1,1,2``), and a resume must owe exactly as many
    executions per hash as were submitted minus completed — while a
    replayed duplicate ``complete`` record for a single-copy spec
    stays idempotent.  Counters keep the whole fold linear in journal
    length.
    """

    id: str
    specs: List[ScenarioSpec] = field(default_factory=list)
    #: results in journaled completion order (stream replay order).
    results: List[ResultRecord] = field(default_factory=list)
    state: str = "running"
    _spec_counts: Counter = field(default_factory=Counter, repr=False)
    _result_counts: Counter = field(default_factory=Counter, repr=False)

    def __post_init__(self) -> None:
        self._spec_counts = Counter(s.content_hash for s in self.specs)
        self._result_counts = Counter(r.spec_hash for r in self.results)

    @property
    def finished(self) -> bool:
        return self.state != "running"

    def completed_hashes(self) -> set:
        return set(self._result_counts)

    def add_result(self, result: ResultRecord) -> bool:
        """Bank a completion (capped at the hash's submit multiplicity)."""
        if (self._result_counts[result.spec_hash]
                >= self._spec_counts[result.spec_hash]):
            return False
        self._result_counts[result.spec_hash] += 1
        self.results.append(result)
        return True

    def pending_specs(self) -> List[ScenarioSpec]:
        """Specs still owed, in submit order, respecting multiplicity."""
        banked = Counter(self._result_counts)
        pending: List[ScenarioSpec] = []
        for spec in self.specs:
            if banked[spec.content_hash] > 0:
                banked[spec.content_hash] -= 1
            else:
                pending.append(spec)
        return pending

    def snapshot_chunks(self) -> Iterator[str]:
        """This job as one snapshot entry's JSON text, in pieces: each
        result's kept text is spliced in as is, so a compaction
        re-encodes no result."""
        head = json.dumps({
            "id": self.id,
            "state": self.state,
            "specs": [s.to_dict() for s in self.specs],
        }, default=str)
        yield f'{head[:-1]}, "results": ['
        for index, result in enumerate(self.results):
            if index:
                yield ", "
            yield result.to_json()
        yield "]}"

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Any]) -> "JournaledJob":
        job = cls(
            id=str(data["id"]),
            specs=[ScenarioSpec.from_dict(s) for s in data["specs"]],
            state=str(data.get("state", "running")),
        )
        for result in data.get("results", ()):
            # one encoding per result: a snapshot is parsed whole
            job.add_result(ResultRecord.of(ScenarioResult.from_dict(result)))
        return job


@dataclass
class JournalState:
    """Everything :meth:`JobJournal.replay` recovers from a log."""

    jobs: Dict[str, JournaledJob] = field(default_factory=dict)
    #: lease/assign events as (job, spec_hash, worker-or-pool) in log
    #: order (tail only after a compaction — the snapshot keeps no
    #: lease trail); old-style ``assign`` grants carry ``pool:<name>``.
    leases: List[tuple] = field(default_factory=list)
    resumes: int = 0
    dropped_lines: int = 0
    #: compaction generation this state descends from (0 = never).
    generation: int = 0
    #: True when a snapshot seeded the fold (tail-only journal read).
    from_snapshot: bool = False
    #: True when a tail marker referenced a snapshot that was missing
    #: or unreadable — replay fell back to the tail journal alone.
    torn_snapshot: bool = False
    #: True when the snapshot was one generation ahead of the tail
    #: marker: a compaction stopped between its snapshot rename and its
    #: journal swap, so the snapshot alone (which holds that whole
    #: tail) seeded the state and the tail was not folded.
    interrupted_compaction: bool = False
    #: journal records actually folded (the O(live) replay-cost proof:
    #: after a compaction this counts tail lines, not history).
    replayed_records: int = 0
    #: job-counter floor carried by the snapshot, so compacting away
    #: old finished jobs can never recycle their ids.
    job_number_floor: int = 0
    #: at the *last* ``resume`` marker: how many leases had been
    #: folded, and which spec hashes were already completed — the
    #: zero-re-execution audit (scripts/check_no_reexecution.py).
    leases_at_last_resume: int = 0
    completed_at_last_resume: set = field(default_factory=set)

    def unfinished(self) -> List[JournaledJob]:
        return [j for j in self.jobs.values() if not j.finished]

    def max_job_number(self) -> int:
        """Highest ``job-N`` counter seen (0 when empty/unnumbered)."""
        highest = self.job_number_floor
        for job_id in self.jobs:
            _prefix, _dash, tail = job_id.rpartition("-")
            if tail.isdigit():
                highest = max(highest, int(tail))
        return highest

    def leases_after_last_resume(self) -> List[tuple]:
        return self.leases[self.leases_at_last_resume:]

    # -- the fold, shared by replay and the writer --------------------------

    def submit(self, job_id: str, specs: List[ScenarioSpec]) -> None:
        self.jobs[job_id] = JournaledJob(id=job_id, specs=list(specs))

    def complete(self, job_id: str, result: ResultRecord) -> None:
        job = self.jobs.get(job_id)
        if job is not None:
            job.add_result(result)

    def finish(self, job_id: str, state: str) -> None:
        job = self.jobs.get(job_id)
        if job is not None:
            job.state = state


class JobJournal:
    """The writer half: one coordinator appending to one JSONL file.

    :attr:`state` is the journal folded in memory: the jobs, resume
    count and generation a :meth:`replay` would give, less the lease
    trail (which only replay keeps, for the audit) and less the
    finished jobs beyond ``keep_finished`` (mirroring the server's
    ``MAX_FINISHED_JOBS`` history cap), which leave it as they finish.
    That cap is what keeps the state, each snapshot and hence resume
    replay work proportional to *live* jobs.

    ``compact_every=N`` auto-compacts once the tail holds N records or
    as many as the last snapshot's specs and results, whichever is
    more; ``None``/0 leaves compaction to explicit :meth:`compact`
    calls.
    """

    SNAPSHOT_FORMAT = 1

    def __init__(
        self,
        path: str | Path,
        *,
        compact_every: Optional[int] = None,
        keep_finished: int = 64,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.compact_every = compact_every or None
        self.keep_finished = keep_finished
        self._fh: Optional[TextIO] = None
        #: serializes appends whichever thread makes them; reentrant
        #: because an append may auto-compact (which re-enters the lock).
        self._lock = threading.RLock()
        #: set by :meth:`compact`; surfaced in coordinator status.
        self.last_compaction: Optional[Dict[str, Any]] = None
        #: finished jobs trimmed from :attr:`state` since the last
        #: compaction (reported by it).
        self._trimmed = 0
        self.state = self.replay(self.path)
        # the lease audit is replay's alone: the writer never grows it
        self.state.leases.clear()
        self.state.leases_at_last_resume = 0
        self.state.completed_at_last_resume.clear()
        self._trim_finished()
        #: lines in the journal file, and specs + results in the state
        #: as of the last compaction (or open): the auto-compaction
        #: trigger compares the two.
        self._tail_records = self.state.replayed_records
        self._snapshot_entries = self._entries()
        if self.state.interrupted_compaction:
            # finish that compaction's journal swap before appending:
            # records appended to the old tail would be skipped, since
            # replay seeds from the newer snapshot alone
            self._swap_journal()
            self.state.interrupted_compaction = False

    @property
    def snapshot_path(self) -> Path:
        return self.path.with_name(self.path.name + ".snapshot")

    def _write(self, event: Mapping[str, Any],
               result: Optional[ResultRecord] = None) -> None:
        """Append one record; a ``result`` is spliced in as the last
        field from its JSON text."""
        with self._lock:
            if (self.compact_every and self._tail_records
                    >= max(self.compact_every, self._snapshot_entries)):
                self.compact()
            if self._fh is None:
                self._fh = self.path.open("a")
            line = json.dumps(dict(event), separators=(",", ":"),
                              default=str)
            if result is not None:
                line = f'{line[:-1]},"result":{result.to_json()}}}'
            self._fh.write(line + "\n")
            self._fh.flush()
            self._tail_records += 1

    def _entries(self) -> int:
        return sum(len(j.specs) + len(j.results)
                   for j in self.state.jobs.values())

    def _trim_finished(self) -> None:
        """Forget the oldest finished jobs beyond ``keep_finished``."""
        finished = [j.id for j in self.state.jobs.values() if j.finished]
        excess = finished[: max(0, len(finished) - self.keep_finished)]
        if excess:
            # the floor keeps a forgotten job's id from being reused
            self.state.job_number_floor = self.state.max_job_number()
            for job_id in excess:
                del self.state.jobs[job_id]
            self._trimmed += len(excess)

    # -- events -------------------------------------------------------------
    # Each record is written, then folded into the state, under one
    # hold of the lock: a compaction (which runs before an append)
    # always sees every record already in the file.

    def record_submit(self, job_id: str, specs: List[ScenarioSpec]) -> None:
        with self._lock:
            self._write({
                "e": "submit",
                "job": job_id,
                "specs": [s.to_dict() for s in specs],
                "t": time.time(),
            })
            self.state.submit(job_id, specs)

    def record_lease(self, job_id: str, spec_hash: str,
                     worker: str) -> None:
        self._write({"e": "lease", "job": job_id, "spec": spec_hash,
                     "worker": worker})

    def record_assign(self, job_id: str, spec_hash: str,
                      pool: str) -> None:
        """A pre-bridge federation front's pool grant.

        The scheduler no longer writes these; the writer stays so tools
        that wrap the journal's record methods by name keep loading.
        """
        self._write({"e": "assign", "job": job_id, "spec": spec_hash,
                     "pool": pool})

    def record_complete(self, job_id: str,
                        result: ScenarioResult | ResultRecord) -> None:
        record = ResultRecord.of(result)
        with self._lock:
            self._write({"e": "complete", "job": job_id}, record)
            self.state.complete(job_id, record)

    def record_job_done(self, job_id: str, state: str) -> None:
        with self._lock:
            self._write({"e": "job-done", "job": job_id, "state": state})
            self.state.finish(job_id, state)
            self._trim_finished()

    def record_resume(self) -> None:
        with self._lock:
            self._write({"e": "resume", "t": time.time()})
            self.state.resumes += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- compaction ---------------------------------------------------------

    def compact(self) -> Dict[str, Any]:
        """Write the in-memory state as a snapshot + a fresh tail.

        Nothing is re-read: the snapshot is :attr:`state` serialized.
        Ordering is the crash-safety argument: (1) the snapshot is
        written to a temp file, fsynced, and atomically renamed into
        place — a crash before the rename leaves the old snapshot (or
        none) and the untouched journal; (2) only then is the journal
        swapped (same temp-write + rename) for a tail holding just the
        ``compacted`` generation marker.  A crash between (1) and (2)
        leaves a snapshot one generation ahead of the journal's marker
        (or a marker-less first-generation journal, which replays in
        full): replay seeds from that snapshot, which holds the whole
        old tail, and the next journal to open the pair redoes (2).
        """
        with self._lock:
            self.close()
            state = self.state
            generation = state.generation + 1
            jobs = list(state.jobs.values())
            snapshot = {
                "format": self.SNAPSHOT_FORMAT,
                "generation": generation,
                "t": time.time(),
                "resumes": state.resumes,
                "job_number_floor": state.max_job_number(),
            }
            head = json.dumps(snapshot, default=str)

            def chunks() -> Iterator[str]:
                yield f'{head[:-1]}, "jobs": ['
                for index, job in enumerate(jobs):
                    if index:
                        yield ", "
                    yield from job.snapshot_chunks()
                yield "]}"

            # written piece by piece: the snapshot is never one string
            self._replace(self.snapshot_path, chunks())
            state.generation = generation
            self._swap_journal()
            self._snapshot_entries = self._entries()
            self.last_compaction = {
                "t": snapshot["t"],
                "generation": generation,
                "live_jobs": len(state.unfinished()),
                "snapshot_jobs": len(jobs),
                "dropped_finished_jobs": self._trimmed,
            }
            self._trimmed = 0
            return self.last_compaction

    def _swap_journal(self) -> None:
        """Replace the journal with a tail holding only the marker of
        the state's generation."""
        marker = json.dumps(
            {"e": "compacted", "gen": self.state.generation,
             "t": time.time()},
            separators=(",", ":"),
        )
        self._replace(self.path, [marker + "\n"])
        self._tail_records = 1

    @staticmethod
    def _replace(path: Path, chunks: Iterable[str]) -> None:
        """Write *chunks* to *path* via temp file + fsync + atomic
        rename."""
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    # -- replay -------------------------------------------------------------

    @classmethod
    def replay(cls, path: str | Path) -> JournalState:
        """Fold a journal (snapshot + tail, or full log) back into state.

        Unparseable lines are counted and skipped: the only expected
        one is a torn final line from a crash mid-write, but a corrupt
        middle line must not take the whole recovery down either.
        Events for jobs with no ``submit`` record (lost to the same
        torn write) are likewise dropped.

        The snapshot beside the journal seeds the fold when its
        generation matches the journal's leading ``compacted`` marker.
        When it is exactly one generation ahead, a compaction stopped
        between its snapshot rename and its journal swap: the snapshot
        already holds the whole tail, so it is the state and the tail
        is not folded.  On any other mismatch — missing or corrupt
        snapshot, or another generation — replay falls back to folding
        the journal alone and flags ``torn_snapshot``.
        """
        path = Path(path)
        state = JournalState()
        if not path.exists():
            return state
        marker_gen = cls._peek_marker_generation(path)
        if marker_gen is not None:
            snapshot = cls._load_snapshot(
                path.with_name(path.name + ".snapshot")
            )
            if snapshot is not None and snapshot.generation == marker_gen:
                state = snapshot
                state.from_snapshot = True
            elif (snapshot is not None
                  and snapshot.generation == marker_gen + 1):
                snapshot.from_snapshot = True
                snapshot.interrupted_compaction = True
                return snapshot
            else:
                # the tail says "I am generation N's tail" but no
                # matching snapshot exists: tolerate, fold the tail
                state.torn_snapshot = True
        with path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                state.replayed_records += 1
                # a complete record's result keeps the text it was
                # written as: the record needs no encoding of its own
                split = split_result(line)
                try:
                    event, result_json = (
                        (json.loads(line), None) if split is None else split
                    )
                    kind = event["e"]
                except (ValueError, RecursionError, KeyError, TypeError):
                    # RecursionError: a line nested past the parser's limit
                    state.dropped_lines += 1
                    continue
                try:
                    cls._fold(state, kind, event, result_json)
                except (KeyError, TypeError, ValueError, RecursionError):
                    state.dropped_lines += 1
        return state

    @staticmethod
    def _peek_marker_generation(path: Path) -> Optional[int]:
        """Generation of a leading ``compacted`` marker, else None."""
        try:
            with path.open() as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    event = json.loads(line)
                    if event.get("e") == "compacted":
                        return int(event["gen"])
                    return None
        except (OSError, ValueError, RecursionError, KeyError, TypeError):
            return None
        return None

    @classmethod
    def _load_snapshot(cls, path: Path) -> Optional[JournalState]:
        """A state seeded from a snapshot file; None if torn/absent."""
        try:
            data = json.loads(path.read_text())
            if data.get("format") != cls.SNAPSHOT_FORMAT:
                return None
            state = JournalState(
                generation=int(data["generation"]),
                resumes=int(data.get("resumes", 0)),
                job_number_floor=int(data.get("job_number_floor", 0)),
            )
            for job_data in data.get("jobs", ()):
                job = JournaledJob.from_snapshot(job_data)
                state.jobs[job.id] = job
            return state
        except (OSError, ValueError, RecursionError, KeyError, TypeError):
            return None

    @staticmethod
    def _fold(state: JournalState, kind: str, event: Mapping[str, Any],
              result_json: Optional[str] = None) -> None:
        if kind == "submit":
            state.submit(
                event["job"],
                [ScenarioSpec.from_dict(s) for s in event["specs"]],
            )
        elif kind == "lease":
            state.leases.append(
                (event["job"], event["spec"], event.get("worker", ""))
            )
        elif kind == "assign":
            # a pre-bridge front's pool grant joins the lease trail so
            # the no-re-execution audit still sees it
            state.leases.append(
                (event["job"], event["spec"],
                 f"pool:{event.get('pool', '')}")
            )
        elif kind == "complete":
            # decoded only to be checked, as a worker's result is
            data = event["result"]
            result = (ScenarioResult.from_dict(data) if result_json is None
                      else ScenarioResult.from_json(result_json, data))
            state.complete(event["job"], ResultRecord.of(result))
        elif kind == "job-done":
            state.finish(event["job"], event.get("state", "done"))
        elif kind == "resume":
            state.resumes += 1
            state.leases_at_last_resume = len(state.leases)
            state.completed_at_last_resume = set()
            for job in state.jobs.values():
                state.completed_at_last_resume |= job.completed_hashes()
        elif kind == "compacted":
            state.generation = max(state.generation, int(event["gen"]))
        # unknown event kinds are ignored: forward compatibility
