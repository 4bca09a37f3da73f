"""Warehouse retention: compaction by age and row cap, plus vacuum.

A synthetic month-long campaign database (one result per day,
timestamped by direct sqlite inserts) is compacted down and
cross-checked row by row: ``--retain-days`` drops by age,
``--retain-rows`` keeps only the newest N results, and ``VACUUM``
gives the freed pages back.
"""

import json
import sqlite3
import time

import pytest

from repro.engine.cli import main
from repro.telemetry.warehouse import ResultsWarehouse, WarehouseError

DAY_S = 86400.0
NOW = time.time()


def month_db(path, days=30):
    """One result per day, oldest first.

    ``hash-NN`` is NN - 0.5 days old: the half-day offset keeps every
    row a clear 12 hours away from any whole-day cutoff, so the tests
    stay deterministic however long they take to reach ``retain``.
    """
    with ResultsWarehouse(path) as wh:
        wh.flush()  # schema exists
    conn = sqlite3.connect(path)
    with conn:
        for age in range(days, 0, -1):
            ts = NOW - age * DAY_S + DAY_S / 2
            conn.execute(
                "INSERT INTO results (recorded_at, scenario, spec_hash,"
                " status, wall_time_s) VALUES (?, ?, ?, 'ok', 0.1)",
                (ts, "E10", f"hash-{age:02d}"),
            )
    conn.close()
    return path


def surviving_hashes(path):
    conn = sqlite3.connect(path)
    rows = conn.execute(
        "SELECT spec_hash FROM results ORDER BY recorded_at"
    ).fetchall()
    conn.close()
    return [h for (h,) in rows]


class TestRetain:
    def test_days_window_drops_old_rows(self, tmp_path):
        db = month_db(str(tmp_path / "wh.sqlite"))
        with ResultsWarehouse(db) as wh:
            summary = wh.retain(days=7)
        assert summary["removed_expired"] == 23
        assert summary["remaining"] == 7
        assert summary["vacuumed"] is True
        # exactly the newest week survives: ages 7..1
        assert surviving_hashes(db) == [
            f"hash-{age:02d}" for age in range(7, 0, -1)
        ]

    def test_row_cap_keeps_the_newest_n(self, tmp_path):
        db = month_db(str(tmp_path / "wh.sqlite"))
        with ResultsWarehouse(db) as wh:
            summary = wh.retain(rows=5, vacuum=False)
        assert summary["removed_over_cap"] == 25
        assert summary["remaining"] == 5
        assert summary["vacuumed"] is False
        assert surviving_hashes(db) == [
            f"hash-{age:02d}" for age in range(5, 0, -1)
        ]

    def test_days_and_rows_compose(self, tmp_path):
        db = month_db(str(tmp_path / "wh.sqlite"))
        with ResultsWarehouse(db) as wh:
            summary = wh.retain(days=14, rows=3)
        assert summary["removed_expired"] == 16
        assert summary["removed_over_cap"] == 11
        assert summary["remaining"] == 3
        assert surviving_hashes(db) == ["hash-03", "hash-02", "hash-01"]

    def test_vacuum_reclaims_file_space(self, tmp_path):
        db = str(tmp_path / "wh.sqlite")

        def pages():
            conn = sqlite3.connect(db)
            try:
                return conn.execute("PRAGMA page_count").fetchone()[0]
            finally:
                conn.close()

        with ResultsWarehouse(db) as wh:
            # bulk rows, so the later delete actually frees pages worth
            # vacuuming
            conn = sqlite3.connect(db)
            with conn:
                conn.executemany(
                    "INSERT INTO results (recorded_at, scenario,"
                    " spec_hash, status, wall_time_s, error)"
                    " VALUES (?, 'E10', ?, 'ok', 0.1, ?)",
                    [(NOW - i, f"h{i}", "x" * 512)
                     for i in range(2000)],
                )
            conn.close()
            # the db runs WAL, so judge by page count, not file size
            before = pages()
            wh.retain(rows=10, vacuum=True)
            after = pages()
        assert after < before

    def test_retain_needs_at_least_one_knob(self, tmp_path):
        db = month_db(str(tmp_path / "wh.sqlite"))
        with ResultsWarehouse(db) as wh:
            with pytest.raises(WarehouseError):
                wh.retain()
            with pytest.raises(WarehouseError):
                wh.retain(days=-1)
            with pytest.raises(WarehouseError):
                wh.retain(rows=-5)
            # the writer survived all three refusals
            assert wh.retain(rows=30)["remaining"] == 30


class TestRetainCLI:
    def test_retain_days_prints_a_summary(self, tmp_path, capsys):
        db = month_db(str(tmp_path / "wh.sqlite"))
        rc = main(["query", "--db", db, "--retain-days", "7"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["removed_expired"] == 23
        assert summary["remaining"] == 7
        assert summary["vacuumed"] is True
        assert surviving_hashes(db) == [
            f"hash-{age:02d}" for age in range(7, 0, -1)
        ]

    def test_retain_rows_with_no_vacuum(self, tmp_path, capsys):
        db = month_db(str(tmp_path / "wh.sqlite"))
        rc = main(["query", "--db", db, "--retain-rows", "4",
                   "--no-vacuum"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["removed_over_cap"] == 26
        assert summary["vacuumed"] is False

    def test_negative_retention_is_a_structured_error(
        self, tmp_path, capsys
    ):
        db = month_db(str(tmp_path / "wh.sqlite"))
        rc = main(["query", "--db", db, "--retain-days", "-1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
