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
    a :class:`ScenarioResult` landed;
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

Compaction keeps replay O(live jobs) instead of O(history): every
``compact_every`` appended records (or on an explicit
:meth:`JobJournal.compact` call) the folded state is written as one
atomic JSON **snapshot** beside the journal and the journal itself is
swapped for a fresh tail holding only a ``{"e": "compacted",
"gen": G}`` marker.  Replay loads the snapshot and folds just the
tail.  The write order — snapshot to a temp file, fsync, atomic
rename, *then* the journal swap — means a crash can never leave a
torn snapshot installed; and if the snapshot is nonetheless
missing/corrupt (or its generation does not match the tail marker),
replay falls back to folding whatever the journal holds rather than
failing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, TextIO

from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec


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
    results: List[ScenarioResult] = field(default_factory=list)
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

    def add_result(self, result: ScenarioResult) -> bool:
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

    def to_snapshot(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "state": self.state,
            "specs": [s.to_dict() for s in self.specs],
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Any]) -> "JournaledJob":
        job = cls(
            id=str(data["id"]),
            specs=[ScenarioSpec.from_dict(s) for s in data["specs"]],
            state=str(data.get("state", "running")),
        )
        for result in data.get("results", ()):
            job.add_result(ScenarioResult.from_dict(result))
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


class JobJournal:
    """The writer half: one coordinator appending to one JSONL file.

    ``compact_every=N`` auto-compacts after every N appended records;
    ``None``/0 leaves compaction to explicit :meth:`compact` calls.
    ``keep_finished`` bounds how many finished jobs a snapshot retains
    (mirroring the server's ``MAX_FINISHED_JOBS`` history cap), which
    is what keeps snapshot size — and hence resume replay work —
    proportional to *live* jobs.
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
        self._appended = 0
        #: serializes appends whichever thread makes them; reentrant
        #: because _write may auto-compact (which re-enters the lock).
        self._lock = threading.RLock()
        #: set by :meth:`compact`; surfaced in coordinator status.
        self.last_compaction: Optional[Dict[str, Any]] = None

    @property
    def snapshot_path(self) -> Path:
        return self.path.with_name(self.path.name + ".snapshot")

    def _write(self, event: Mapping[str, Any]) -> None:
        with self._lock:
            if self._fh is None:
                self._fh = self.path.open("a")
            self._fh.write(json.dumps(dict(event), separators=(",", ":"),
                                      default=str) + "\n")
            self._fh.flush()
            self._appended += 1
            if self.compact_every and self._appended >= self.compact_every:
                self.compact()

    # -- events -------------------------------------------------------------

    def record_submit(self, job_id: str, specs: List[ScenarioSpec]) -> None:
        self._write({
            "e": "submit",
            "job": job_id,
            "specs": [s.to_dict() for s in specs],
            "t": time.time(),
        })

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

    def record_complete(self, job_id: str, result: ScenarioResult) -> None:
        self._write({"e": "complete", "job": job_id,
                     "result": result.to_dict()})

    def record_job_done(self, job_id: str, state: str) -> None:
        self._write({"e": "job-done", "job": job_id, "state": state})

    def record_resume(self) -> None:
        self._write({"e": "resume", "t": time.time()})

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- compaction ---------------------------------------------------------

    def compact(self) -> Dict[str, Any]:
        """Fold the journal into an atomic snapshot + a fresh tail.

        Ordering is the crash-safety argument: (1) the snapshot is
        written to a temp file, fsynced, and atomically renamed into
        place — a crash before the rename leaves the old snapshot (or
        none) and the untouched full journal; (2) only then is the
        journal swapped (same temp-write + rename) for a tail holding
        just the ``compacted`` generation marker.  A crash between
        (1) and (2) leaves a new snapshot whose generation the old
        journal's marker does *not* carry, so replay ignores it and
        folds the full journal — never wrong, merely uncompacted.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> Dict[str, Any]:
        self.close()
        state = self.replay(self.path)
        generation = state.generation + 1
        jobs = list(state.jobs.values())
        finished = [j for j in jobs if j.finished]
        drop = (
            set()
            if len(finished) <= self.keep_finished
            else {j.id for j in finished[: len(finished)
                                         - self.keep_finished]}
        )
        snapshot = {
            "format": self.SNAPSHOT_FORMAT,
            "generation": generation,
            "t": time.time(),
            "resumes": state.resumes,
            "job_number_floor": state.max_job_number(),
            "jobs": [
                j.to_snapshot() for j in jobs if j.id not in drop
            ],
        }
        self._replace(self.snapshot_path,
                      json.dumps(snapshot, default=str))
        marker = json.dumps(
            {"e": "compacted", "gen": generation, "t": snapshot["t"]},
            separators=(",", ":"),
        )
        self._replace(self.path, marker + "\n")
        self._appended = 0
        self.last_compaction = {
            "t": snapshot["t"],
            "generation": generation,
            "live_jobs": len(state.unfinished()),
            "snapshot_jobs": len(snapshot["jobs"]),
            "dropped_finished_jobs": len(drop),
        }
        return self.last_compaction

    @staticmethod
    def _replace(path: Path, text: str) -> None:
        """Write *text* to *path* via temp file + fsync + atomic rename."""
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w") as fh:
            fh.write(text)
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

        The snapshot beside the journal is used only when its
        generation matches the journal's leading ``compacted`` marker;
        on any mismatch — torn snapshot, missing snapshot, crash
        between snapshot rename and journal swap — replay falls back
        to folding the journal alone.
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
                try:
                    event = json.loads(line)
                    kind = event["e"]
                except (ValueError, KeyError, TypeError):
                    state.dropped_lines += 1
                    continue
                try:
                    cls._fold(state, kind, event)
                except (KeyError, TypeError, ValueError):
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
        except (OSError, ValueError, KeyError, TypeError):
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
        except (OSError, ValueError, KeyError, TypeError):
            return None

    @staticmethod
    def _fold(state: JournalState, kind: str,
              event: Mapping[str, Any]) -> None:
        if kind == "submit":
            job_id = event["job"]
            state.jobs[job_id] = JournaledJob(
                id=job_id,
                specs=[ScenarioSpec.from_dict(s) for s in event["specs"]],
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
            job = state.jobs.get(event["job"])
            if job is not None:
                job.add_result(ScenarioResult.from_dict(event["result"]))
        elif kind == "job-done":
            job = state.jobs.get(event["job"])
            if job is not None:
                job.state = event.get("state", "done")
        elif kind == "resume":
            state.resumes += 1
            state.leases_at_last_resume = len(state.leases)
            state.completed_at_last_resume = set()
            for job in state.jobs.values():
                state.completed_at_last_resume |= job.completed_hashes()
        elif kind == "compacted":
            state.generation = max(state.generation, int(event["gen"]))
        # unknown event kinds are ignored: forward compatibility
