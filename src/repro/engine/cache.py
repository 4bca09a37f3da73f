"""SQLite result cache keyed by code version + spec hash.

Every entry of a cache directory is one row of the ``results`` table
in ``<root>/results.sqlite``, keyed by ``(code_version, spec_hash)``
and holding the result's own JSON text
(:meth:`ScenarioResult.to_json`), the same text the worker then frames
for its coordinator.  A read stamps the row's code version on the
decoded result and marks it fresh (``cached=False``), so the stored
text needs neither; rows written with both fields decode the same.
:meth:`ResultCache.get` then marks its hit cached.  The code version is
a digest over every ``src/repro/**/*.py`` source file, so *any* source
change invalidates the whole cache — coarse but sound: re-running a
sweep after an edit only re-executes, never replays stale results.

A put is one autocommitted ``INSERT OR REPLACE``; a lookup, a prune, a
clear and the stats are one statement each.  The store uses the
warehouse's pragmas (WAL, ``synchronous=NORMAL``, 30 s busy timeout),
so threads and processes sharing a cache directory serialize on
SQLite's locks instead of racing on files.  A put survives a killed
process but not necessarily a power loss.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Optional

from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec

_BUSY_TIMEOUT_S = 30.0

#: ``seq`` is the rowid: an insert or replace takes one more than the
#: largest in the table, so it orders the live rows by write time.  Its
#: own index lets a prune count back through small index pages rather
#: than the payloads' table pages.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    seq          INTEGER PRIMARY KEY,
    code_version TEXT NOT NULL,
    spec_hash    TEXT NOT NULL,
    payload      TEXT NOT NULL,
    UNIQUE (code_version, spec_hash)
);
CREATE INDEX IF NOT EXISTS results_by_seq ON results (seq);
"""

_CODE_VERSION: Optional[str] = None


def compute_code_version(root: Optional[Path] = None) -> str:
    """Digest of the repro package sources (memoized per process)."""
    global _CODE_VERSION
    if root is None:
        if _CODE_VERSION is not None:
            return _CODE_VERSION
        root = Path(__file__).resolve().parents[1]  # src/repro
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    version = digest.hexdigest()[:12]
    if root == Path(__file__).resolve().parents[1]:
        _CODE_VERSION = version
    return version


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch the store to WAL, retrying until the busy timeout.

    Connections that open a new store at once can each hold a read
    lock while they wait to switch it; SQLite then fails one of them
    at once instead of running the busy handler.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                conn.close()
                raise
            time.sleep(0.01)


def _decode(payload: str, code_version: str) -> Optional[ScenarioResult]:
    """A stored result, stamped with its row's code version and read
    as fresh (``cached=False``); None for a corrupt entry."""
    try:
        data = json.loads(payload)
        data["code_version"] = code_version
        data["cached"] = False
        return ScenarioResult.from_dict(data)
    except (ValueError, KeyError, TypeError):
        return None  # corrupt entry: treat as a miss


class ResultCache:
    """Content-addressed store of successful scenario results.

    One connection per instance, opened on first use and shared by
    threads under a lock.  Reads of a directory with no store answer
    empty and create nothing.
    """

    def __init__(
        self, root: str | Path, code_version: Optional[str] = None
    ):
        self.root = Path(root)
        self.code_version = code_version or compute_code_version()
        self.path = self.root / "results.sqlite"
        self._conn: Optional[sqlite3.Connection] = None
        self._lock = threading.Lock()

    def _connection(self, create: bool) -> Optional[sqlite3.Connection]:
        """The open connection (the caller holds the lock), or None when
        there is no store yet and ``create`` is false."""
        if self._conn is None:
            if not create and not self.path.exists():
                return None
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path), timeout=_BUSY_TIMEOUT_S,
                isolation_level=None, check_same_thread=False,
            )
            _enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            self._conn = conn
        return self._conn

    def close(self) -> None:
        """Release the connection; the next use opens a new one."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _lookup(self, spec: ScenarioSpec, column: str):
        key = (self.code_version, spec.content_hash)
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return None
            return conn.execute(
                f"SELECT {column} FROM results"
                " WHERE code_version = ? AND spec_hash = ?", key,
            ).fetchone()

    def get(self, spec: ScenarioSpec) -> Optional[ScenarioResult]:
        """The cached result for this spec under the current code, or None."""
        row = self._lookup(spec, "payload")
        result = (_decode(row[0], self.code_version)
                  if row is not None else None)
        return result.as_cached() if result is not None else None

    def put(self, result: ScenarioResult) -> None:
        """Store the result's own JSON text; the row's code version is
        stamped on it when it is read back."""
        row = (self.code_version, result.spec_hash, result.to_json())
        with self._lock:
            self._connection(create=True).execute(
                "INSERT OR REPLACE INTO results"
                " (code_version, spec_hash, payload) VALUES (?, ?, ?)", row,
            )

    def __contains__(self, spec: ScenarioSpec) -> bool:
        return self._lookup(spec, "1") is not None

    def entries(self) -> list:
        """All results stored under the current code version, sorted by
        spec hash."""
        with self._lock:
            conn = self._connection(create=False)
            rows = [] if conn is None else conn.execute(
                "SELECT payload FROM results WHERE code_version = ?"
                " ORDER BY spec_hash", (self.code_version,),
            ).fetchall()
        results = (_decode(payload, self.code_version)
                   for (payload,) in rows)
        return [result for result in results if result is not None]

    def clear(self) -> int:
        """Drop every entry (all code versions) and reclaim the space;
        returns the entries removed."""
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return 0
            removed = conn.execute("DELETE FROM results").rowcount
            conn.execute("VACUUM")
        return removed

    def prune(self, max_entries: int) -> int:
        """Keep the ``max_entries`` most recently written entries;
        returns how many were removed.

        Pruning spans *all* code versions, oldest-written first, so a
        long campaign sheds stale versions before current results.
        ``max_entries < 0`` is a no-op.
        """
        if max_entries < 0:
            return 0
        with self._lock:
            conn = self._connection(create=False)
            if conn is None:
                return 0
            return conn.execute(
                "DELETE FROM results WHERE seq <= (SELECT seq FROM results"
                " ORDER BY seq DESC LIMIT 1 OFFSET ?)", (max_entries,),
            ).rowcount

    def stats(self) -> dict:
        """Entry/byte totals, split current-version vs stale; ``bytes``
        counts the stored payloads."""
        total = current = size = 0
        with self._lock:
            conn = self._connection(create=False)
            if conn is not None:
                total, current, size = conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(code_version = ?), 0),"
                    " COALESCE(SUM(LENGTH(CAST(payload AS BLOB))), 0)"
                    " FROM results", (self.code_version,),
                ).fetchone()
        return {
            "entries": total,
            "current_version": current,
            "stale": total - current,
            "bytes": size,
            "root": str(self.root),
            "code_version": self.code_version,
        }
