"""Sqlite results warehouse: every result as a queryable row.

The flat hash-keyed JSON cache answers exactly one question ("have I
run this spec under this code?"); the warehouse answers the rest:
*which scenarios regressed since Tuesday*, *what's the mean wall time
of E10 across the last hundred sweeps*, *did any shard of job-7 fail*.
Every :class:`ScenarioResult` that flows through a
:class:`~repro.service.backend.LocalBackend` or the cluster
coordinator lands here as one row carrying the spec params, code
version, wall time, cache-hit flag and the job-id correlation id.

Concurrency follows the async single-writer idiom: all writes are
enqueued to one daemon thread that owns the only write connection
(WAL mode, batched commits), so producers — the coordinator's event
loop, a server's executor threads, a test's thread pool — never
contend on sqlite locks and rows are never lost to ``SQLITE_BUSY``.
Reads open short-lived connections in the calling thread; WAL lets
them proceed concurrently with the writer.  :meth:`flush` is the
barrier that makes enqueued writes durable and visible.

The writer thread starts lazily on the first write, so opening a
warehouse read-only (``repro query``) costs one schema check.
"""

from __future__ import annotations

import json
import queue
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.engine.results import ScenarioResult

__all__ = ["ResultsWarehouse", "WarehouseError", "parse_when"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    id            INTEGER PRIMARY KEY,
    recorded_at   REAL NOT NULL,
    scenario      TEXT NOT NULL,
    spec_hash     TEXT NOT NULL,
    seed          INTEGER,
    params        TEXT NOT NULL DEFAULT '{}',
    status        TEXT NOT NULL,
    reproduced    INTEGER,
    headline_name  TEXT,
    headline_value REAL,
    wall_time_s   REAL NOT NULL DEFAULT 0.0,
    backend       TEXT,
    cached        INTEGER NOT NULL DEFAULT 0,
    code_version  TEXT NOT NULL DEFAULT '',
    job_id        TEXT NOT NULL DEFAULT '',
    source        TEXT NOT NULL DEFAULT 'local',
    error         TEXT
);
CREATE INDEX IF NOT EXISTS idx_results_scenario
    ON results (scenario, recorded_at);
CREATE INDEX IF NOT EXISTS idx_results_spec_hash ON results (spec_hash);
CREATE INDEX IF NOT EXISTS idx_results_job ON results (job_id);
"""

_RESULT_COLUMNS = (
    "recorded_at", "scenario", "spec_hash", "seed", "params", "status",
    "reproduced", "headline_name", "headline_value", "wall_time_s",
    "backend", "cached", "code_version", "job_id", "source", "error",
)
_INSERT_RESULT = (
    f"INSERT INTO results ({', '.join(_RESULT_COLUMNS)}) "
    f"VALUES ({', '.join('?' * len(_RESULT_COLUMNS))})"
)

#: columns ``query``/``aggregate`` accept as filter/agg/group targets —
#: an allowlist, because field names are interpolated into SQL.
_NUMERIC_FIELDS = frozenset(
    {"wall_time_s", "headline_value", "seed", "recorded_at",
     "cached", "reproduced"}
)
_FIELD_ALIASES = {"wall_time": "wall_time_s", "headline": "headline_value"}
_GROUP_FIELDS = frozenset(
    {"scenario", "status", "spec_hash", "job_id", "code_version",
     "backend", "source", "cached"}
)
_AGG_FUNCTIONS = {
    "count": "COUNT", "mean": "AVG", "avg": "AVG",
    "min": "MIN", "max": "MAX", "sum": "SUM",
}


class WarehouseError(RuntimeError):
    """The writer thread died or a query was malformed."""


def parse_when(value: Any) -> float:
    """A ``--since``/``--until`` value to an epoch float.

    Accepts a unix timestamp (int/float/numeric string) or an ISO
    date / datetime (``2026-08-01``, ``2026-08-01T12:30:00``, with a
    trailing ``Z`` tolerated).
    """
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip()
    try:
        return float(text)
    except ValueError:
        pass
    from datetime import datetime, timezone

    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        parsed = datetime.fromisoformat(iso)
    except ValueError:
        raise WarehouseError(
            f"cannot parse time {value!r}: need an epoch number or "
            "ISO date/datetime"
        ) from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.timestamp()


def _result_row(
    result: ScenarioResult,
    *,
    job_id: str,
    source: str,
    code_version: str,
    now: float,
) -> tuple:
    metric_name, metric_value = result.headline_metric()
    numeric = (
        float(metric_value)
        if isinstance(metric_value, (int, float))
        and not isinstance(metric_value, bool)
        else None
    )
    reproduced = result.reproduced
    return (
        now,
        result.name,
        result.spec_hash,
        result.seed,
        json.dumps(result.params, sort_keys=True, default=str),
        result.status,
        None if reproduced is None else int(reproduced),
        metric_name,
        numeric,
        float(result.elapsed_s),
        result.backend,
        int(result.cached),
        result.code_version or code_version,
        job_id or "",
        source,
        result.error,
    )


class ResultsWarehouse:
    """One sqlite file, one writer thread, many concurrent readers."""

    #: writer commits are batched: the thread drains everything queued
    #: before committing once, so a burst of results costs one fsync.
    _QUEUE_MAX = 10_000

    def __init__(self, path: str | Path, *, source: str = "local"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.source = source
        # the engine's code-version digest stamps rows whose result
        # predates caching (fresh results carry an empty version)
        from repro.engine.cache import compute_code_version

        self.code_version = compute_code_version()
        self._queue: "queue.Queue" = queue.Queue(maxsize=self._QUEUE_MAX)
        self._writer: Optional[threading.Thread] = None
        self._writer_lock = threading.Lock()
        self._writer_error: Optional[BaseException] = None
        self._closed = False
        self._ensure_schema()

    # -- schema / connections ------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _ensure_schema(self) -> None:
        conn = self._connect()
        try:
            conn.executescript(_SCHEMA)
            conn.commit()
        finally:
            conn.close()

    def _read_conn(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        conn.row_factory = sqlite3.Row
        return conn

    # -- the writer thread ---------------------------------------------------

    def _ensure_writer(self) -> None:
        if self._writer is not None and self._writer.is_alive():
            return
        with self._writer_lock:
            if self._writer is not None and self._writer.is_alive():
                return
            if self._writer_error is not None:
                raise WarehouseError(
                    f"warehouse writer died: {self._writer_error!r}"
                )
            self._writer = threading.Thread(
                target=self._writer_loop,
                name=f"warehouse-writer:{self.path.name}",
                daemon=True,
            )
            self._writer.start()

    def _writer_loop(self) -> None:
        try:
            conn = self._connect()
        except sqlite3.Error as exc:
            self._writer_error = exc
            return
        try:
            while True:
                item = self._queue.get()
                batch = [item]
                while True:
                    try:
                        batch.append(self._queue.get_nowait())
                    except queue.Empty:
                        break
                stop = False
                barriers: List[threading.Event] = []
                tasks: List[tuple] = []
                for kind, payload in batch:
                    if kind == "stop":
                        stop = True
                    elif kind == "flush":
                        barriers.append(payload)
                    elif kind == "task":
                        tasks.append(payload)
                    else:  # ("sql", (statement, rows))
                        statement, rows = payload
                        conn.executemany(statement, rows)
                conn.commit()
                for barrier in barriers:
                    barrier.set()
                # serialized tasks run after the batch commit, each in
                # its own try: a failing task (bad query, interrupted
                # vacuum) reports to its caller without killing the
                # writer the way a failed insert batch would
                for fn, holder, done in tasks:
                    try:
                        holder["result"] = fn(conn)
                        conn.commit()
                    except Exception as exc:
                        holder["error"] = exc
                        try:
                            conn.rollback()
                        except sqlite3.Error:
                            pass
                    finally:
                        done.set()
                if stop:
                    return
        except BaseException as exc:  # surface on the next write/flush
            self._writer_error = exc
            # unblock every flusher/task still queued so nothing deadlocks
            try:
                while True:
                    kind, payload = self._queue.get_nowait()
                    if kind == "flush":
                        payload.set()
                    elif kind == "task":
                        payload[1]["error"] = exc
                        payload[2].set()
            except queue.Empty:
                pass
        finally:
            conn.close()

    def _enqueue(self, item: tuple) -> None:
        if self._closed:
            raise WarehouseError("warehouse is closed")
        if self._writer_error is not None:
            raise WarehouseError(
                f"warehouse writer died: {self._writer_error!r}"
            )
        self._ensure_writer()
        self._queue.put(item)

    # -- writes --------------------------------------------------------------

    def record_result(
        self,
        result: ScenarioResult,
        *,
        job_id: str = "",
        source: Optional[str] = None,
    ) -> None:
        """Enqueue one result row (non-blocking unless the queue is full)."""
        self.record_results([result], job_id=job_id, source=source)

    def record_results(
        self,
        results: Iterable[ScenarioResult],
        *,
        job_id: str = "",
        source: Optional[str] = None,
    ) -> int:
        now = time.time()
        rows = [
            _result_row(
                result,
                job_id=job_id,
                source=source or self.source,
                code_version=self.code_version,
                now=now,
            )
            for result in results
        ]
        if rows:
            self._enqueue(("sql", (_INSERT_RESULT, rows)))
        return len(rows)

    def flush(self, timeout_s: float = 30.0) -> None:
        """Block until everything enqueued so far is committed."""
        if self._writer is None or not self._writer.is_alive():
            if self._writer_error is not None:
                raise WarehouseError(
                    f"warehouse writer died: {self._writer_error!r}"
                )
            return  # nothing was ever written
        barrier = threading.Event()
        self._queue.put(("flush", barrier))
        if not barrier.wait(timeout_s):
            raise WarehouseError(
                f"warehouse flush did not complete within {timeout_s:g}s"
            )
        if self._writer_error is not None:
            raise WarehouseError(
                f"warehouse writer died: {self._writer_error!r}"
            )

    def run_serialized(self, fn, timeout_s: float = 60.0) -> Any:
        """Run ``fn(conn)`` on the writer thread, after pending writes.

        This is the serialization point the HTTP read endpoint and
        :meth:`retain` go through: the callable sees a connection with
        every enqueued write already committed, and it can never race
        the writer because it *is* the writer for its turn.  The
        callable's exception is re-raised here as a
        :class:`WarehouseError` (the original as ``__cause__``);
        a failing task does not kill the writer.
        """
        holder: Dict[str, Any] = {}
        done = threading.Event()
        self._enqueue(("task", (fn, holder, done)))
        if not done.wait(timeout_s):
            raise WarehouseError(
                f"serialized task did not complete within {timeout_s:g}s"
            )
        if "error" in holder:
            error = holder["error"]
            if isinstance(error, WarehouseError):
                raise error
            raise WarehouseError(
                f"serialized task failed: {error!r}"
            ) from error
        return holder.get("result")

    def retain(
        self,
        *,
        days: Optional[float] = None,
        rows: Optional[int] = None,
        vacuum: bool = True,
        timeout_s: float = 300.0,
    ) -> Dict[str, Any]:
        """Compact the warehouse to a retention window and/or row cap.

        ``days`` drops ``results`` rows recorded more than that many
        days ago; ``rows`` additionally caps ``results`` to the newest
        N.  Runs serialized on the writer thread (deletes commit first,
        then ``VACUUM`` reclaims the file space outside any
        transaction).  Returns a summary dict.
        """
        if days is None and rows is None:
            raise WarehouseError(
                "retain needs a days window and/or a row cap"
            )
        if days is not None and days < 0:
            raise WarehouseError("retain days must be >= 0")
        if rows is not None and rows < 0:
            raise WarehouseError("retain rows must be >= 0")
        cutoff = (
            time.time() - float(days) * 86400.0 if days is not None
            else None
        )

        def _task(conn: sqlite3.Connection) -> Dict[str, Any]:
            expired = capped = 0
            if cutoff is not None:
                expired = conn.execute(
                    "DELETE FROM results WHERE recorded_at < ?", (cutoff,)
                ).rowcount
            if rows is not None:
                capped = conn.execute(
                    "DELETE FROM results WHERE id NOT IN ("
                    "SELECT id FROM results "
                    "ORDER BY recorded_at DESC, id DESC LIMIT ?)",
                    (int(rows),),
                ).rowcount
            conn.commit()
            if vacuum:
                conn.execute("VACUUM")
            (remaining,) = conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
            return {
                "path": str(self.path),
                "removed_expired": int(expired),
                "removed_over_cap": int(capped),
                "remaining": int(remaining),
                "vacuumed": bool(vacuum),
                "cutoff": cutoff,
            }

        return self.run_serialized(_task, timeout_s=timeout_s)

    def close(self, timeout_s: float = 30.0) -> None:
        """Flush and stop the writer; the warehouse rejects new writes."""
        if self._closed:
            return
        self._closed = True
        writer = self._writer
        if writer is not None and writer.is_alive():
            self._queue.put(("stop", None))
            writer.join(timeout_s)

    def __enter__(self) -> "ResultsWarehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reads ---------------------------------------------------------------

    @staticmethod
    def _filters(
        *,
        scenario: Optional[str] = None,
        status: Optional[str] = None,
        job: Optional[str] = None,
        spec_hash: Optional[str] = None,
        source: Optional[str] = None,
        code_version: Optional[str] = None,
        cached: Optional[bool] = None,
        since: Optional[Any] = None,
        until: Optional[Any] = None,
    ) -> tuple:
        clauses: List[str] = []
        params: List[Any] = []
        if scenario is not None:
            clauses.append("scenario = ?")
            params.append(scenario)
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        if job is not None:
            clauses.append("job_id = ?")
            params.append(job)
        if spec_hash is not None:
            clauses.append("spec_hash = ?")
            params.append(spec_hash)
        if source is not None:
            clauses.append("source = ?")
            params.append(source)
        if code_version is not None:
            clauses.append("code_version = ?")
            params.append(code_version)
        if cached is not None:
            clauses.append("cached = ?")
            params.append(int(cached))
        if since is not None:
            clauses.append("recorded_at >= ?")
            params.append(parse_when(since))
        if until is not None:
            clauses.append("recorded_at <= ?")
            params.append(parse_when(until))
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return where, params

    def query(
        self,
        *,
        limit: Optional[int] = None,
        **filters: Any,
    ) -> List[Dict[str, Any]]:
        """Matching result rows, oldest first, params decoded back to dicts."""
        where, params = self._filters(**filters)
        sql = f"SELECT * FROM results{where} ORDER BY recorded_at, id"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        conn = self._read_conn()
        try:
            rows = [dict(row) for row in conn.execute(sql, params)]
        finally:
            conn.close()
        for row in rows:
            try:
                row["params"] = json.loads(row["params"])
            except (TypeError, ValueError):
                row["params"] = {}
            row["cached"] = bool(row["cached"])
            if row["reproduced"] is not None:
                row["reproduced"] = bool(row["reproduced"])
        return rows

    def count(self, **filters: Any) -> int:
        where, params = self._filters(**filters)
        conn = self._read_conn()
        try:
            (n,) = conn.execute(
                f"SELECT COUNT(*) FROM results{where}", params
            ).fetchone()
        finally:
            conn.close()
        return int(n)

    @staticmethod
    def parse_agg(spec: str) -> tuple:
        """``"mean:wall_time"`` -> validated ``(sql_fn, column, label)``."""
        fn, _colon, fieldname = spec.partition(":")
        fn = fn.strip().lower()
        if fn not in _AGG_FUNCTIONS:
            raise WarehouseError(
                f"unknown aggregate {fn!r}; expected one of "
                f"{sorted(_AGG_FUNCTIONS)}"
            )
        fieldname = fieldname.strip()
        if fn == "count":
            label = f"count_{fieldname}" if fieldname else "count"
            return _AGG_FUNCTIONS[fn], "*", label
        fieldname = _FIELD_ALIASES.get(fieldname, fieldname) or "wall_time_s"
        if fieldname not in _NUMERIC_FIELDS:
            raise WarehouseError(
                f"cannot aggregate over {fieldname!r}; numeric fields: "
                f"{sorted(_NUMERIC_FIELDS)}"
            )
        return _AGG_FUNCTIONS[fn], fieldname, f"{fn}_{fieldname}"

    def aggregate(
        self,
        aggs: Sequence[str],
        *,
        group_by: str = "scenario",
        **filters: Any,
    ) -> List[Dict[str, Any]]:
        """Grouped aggregates, e.g. ``aggs=["mean:wall_time_s", "count:"]``.

        ``group_by`` must be a categorical column; each output row is
        ``{group_by: value, "<fn>_<field>": number, ...}``.
        """
        if group_by not in _GROUP_FIELDS:
            raise WarehouseError(
                f"cannot group by {group_by!r}; choose from "
                f"{sorted(_GROUP_FIELDS)}"
            )
        parsed = [self.parse_agg(a) for a in (aggs or ["count:"])]
        select = ", ".join(
            f"{fn}({column}) AS {label}" for fn, column, label in parsed
        )
        where, params = self._filters(**filters)
        sql = (
            f"SELECT {group_by}, {select} FROM results{where} "
            f"GROUP BY {group_by} ORDER BY {group_by}"
        )
        conn = self._read_conn()
        try:
            return [dict(row) for row in conn.execute(sql, params)]
        finally:
            conn.close()

    def stats(self) -> Dict[str, Any]:
        """Row counts and span for ``repro query --stats`` style output."""
        conn = self._read_conn()
        try:
            (results,) = conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
            span = conn.execute(
                "SELECT MIN(recorded_at), MAX(recorded_at) FROM results"
            ).fetchone()
            (jobs,) = conn.execute(
                "SELECT COUNT(DISTINCT job_id) FROM results "
                "WHERE job_id != ''"
            ).fetchone()
            (versions,) = conn.execute(
                "SELECT COUNT(DISTINCT code_version) FROM results"
            ).fetchone()
        finally:
            conn.close()
        return {
            "path": str(self.path),
            "results": int(results),
            "jobs": int(jobs),
            "code_versions": int(versions),
            "first_recorded_at": span[0],
            "last_recorded_at": span[1],
        }
