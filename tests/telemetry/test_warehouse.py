"""The sqlite results warehouse: round trips, filters, concurrency."""

import threading
import time

import pytest

from repro.engine.results import ScenarioResult
from repro.telemetry.warehouse import (
    ResultsWarehouse,
    WarehouseError,
    parse_when,
)


def result(
    name="E10",
    *,
    spec_hash="hash-e10",
    status="ok",
    elapsed_s=0.25,
    cached=False,
    params=None,
    verdict=None,
    seed=7,
    error=None,
):
    return ScenarioResult(
        name=name,
        spec_hash=spec_hash,
        params=params if params is not None else {"n": 4},
        seed=seed,
        status=status,
        verdict=verdict if verdict is not None else {
            "reproduced": True, "ratio": 1.5,
        },
        rows=[{"i": 0}],
        elapsed_s=elapsed_s,
        backend="serial",
        cached=cached,
        error=error,
    )


class TestRoundTrip:
    def test_record_flush_query_preserves_types(self, tmp_path):
        with ResultsWarehouse(tmp_path / "wh.sqlite") as wh:
            wh.record_result(result(), job_id="job-1")
            wh.flush()
            rows = wh.query()
        assert len(rows) == 1
        row = rows[0]
        assert row["scenario"] == "E10"
        assert row["spec_hash"] == "hash-e10"
        assert row["params"] == {"n": 4}       # JSON text -> dict
        assert row["seed"] == 7
        assert row["cached"] is False          # INTEGER -> bool
        assert row["reproduced"] is True
        assert row["headline_name"] == "ratio"
        assert row["headline_value"] == pytest.approx(1.5)
        assert row["wall_time_s"] == pytest.approx(0.25)
        assert row["job_id"] == "job-1"
        assert row["source"] == "local"
        assert row["code_version"]             # stamped at record time

    def test_failed_results_keep_hash_and_wall_time(self, tmp_path):
        with ResultsWarehouse(tmp_path / "wh.sqlite") as wh:
            wh.record_result(result(
                status="error", elapsed_s=0.125, verdict={},
                error="Traceback: boom",
            ))
            wh.flush()
            rows = wh.query(status="error")
        assert len(rows) == 1
        assert rows[0]["spec_hash"] == "hash-e10"
        assert rows[0]["wall_time_s"] == pytest.approx(0.125)
        assert rows[0]["error"] == "Traceback: boom"
        assert rows[0]["reproduced"] is None

    def test_closed_warehouse_rejects_writes(self, tmp_path):
        wh = ResultsWarehouse(tmp_path / "wh.sqlite")
        wh.close()
        with pytest.raises(WarehouseError):
            wh.record_result(result())


class TestFiltersAndAggregates:
    @pytest.fixture()
    def seeded(self, tmp_path):
        wh = ResultsWarehouse(tmp_path / "wh.sqlite")
        for i in range(4):
            wh.record_result(
                result(elapsed_s=0.1 * (i + 1), cached=(i == 3)),
                job_id="job-a",
            )
        wh.record_result(
            result("E14", spec_hash="hash-e14", elapsed_s=1.0),
            job_id="job-b",
        )
        wh.record_result(
            result("E14", spec_hash="hash-e14", status="error",
                   verdict={}, elapsed_s=0.5),
            job_id="job-b",
        )
        wh.flush()
        yield wh
        wh.close()

    def test_scenario_and_status_filters(self, seeded):
        assert len(seeded.query(scenario="E10")) == 4
        assert len(seeded.query(scenario="E14", status="ok")) == 1
        assert seeded.count(job="job-b") == 2
        assert seeded.count(cached=True) == 1
        assert seeded.count(spec_hash="hash-e14") == 2

    def test_since_until_window(self, seeded):
        now = time.time()
        assert seeded.count(since=now - 60) == 6
        assert seeded.count(until=now - 60) == 0

    def test_aggregate_mean_and_count_by_scenario(self, seeded):
        rows = seeded.aggregate(
            ["mean:wall_time", "count:"], group_by="scenario",
            status="ok",
        )
        by_name = {r["scenario"]: r for r in rows}
        assert by_name["E10"]["count"] == 4
        assert by_name["E10"]["mean_wall_time_s"] == pytest.approx(0.25)
        assert by_name["E14"]["mean_wall_time_s"] == pytest.approx(1.0)

    def test_aggregate_rejects_unlisted_fields(self, seeded):
        with pytest.raises(WarehouseError):
            seeded.aggregate(["mean:error"])
        with pytest.raises(WarehouseError):
            seeded.aggregate(["mean:wall_time"], group_by="params")
        with pytest.raises(WarehouseError):
            seeded.aggregate(["median:wall_time"])

    def test_limit_and_ordering(self, seeded):
        rows = seeded.query(limit=2)
        assert len(rows) == 2
        all_rows = seeded.query()
        assert [r["id"] for r in all_rows] == sorted(
            r["id"] for r in all_rows
        )


class TestParseWhen:
    def test_accepts_epoch_and_iso(self):
        assert parse_when(1700000000) == 1700000000.0
        assert parse_when("1700000000.5") == 1700000000.5
        iso = parse_when("2026-08-01T00:00:00Z")
        assert iso == parse_when("2026-08-01")

    def test_rejects_garbage(self):
        with pytest.raises(WarehouseError):
            parse_when("not-a-time")


class TestConcurrency:
    def test_many_threads_one_warehouse_no_lost_rows(self, tmp_path):
        """A coordinator thread and local backends share one warehouse."""
        wh = ResultsWarehouse(tmp_path / "wh.sqlite")
        per_thread = 50
        threads = 6

        def produce(index):
            for i in range(per_thread):
                wh.record_result(
                    result(f"T{index}", spec_hash=f"hash-{index}-{i}"),
                    job_id=f"job-{index}",
                    source="coordinator" if index % 2 else "local",
                )

        pool = [
            threading.Thread(target=produce, args=(index,))
            for index in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        wh.flush()
        assert wh.count() == per_thread * threads
        for index in range(threads):
            assert wh.count(job=f"job-{index}") == per_thread
        hashes = {r["spec_hash"] for r in wh.query()}
        assert len(hashes) == per_thread * threads
        wh.close()

    def test_two_warehouse_handles_same_file(self, tmp_path):
        """Coordinator and a local run can share the sqlite file."""
        path = tmp_path / "wh.sqlite"
        a = ResultsWarehouse(path, source="coordinator")
        b = ResultsWarehouse(path, source="local")
        done = threading.Barrier(2)

        def produce(wh, tag):
            done.wait(timeout=10)
            for i in range(40):
                wh.record_result(
                    result(tag, spec_hash=f"{tag}-{i}"), job_id=tag
                )
            wh.flush()

        ta = threading.Thread(target=produce, args=(a, "coord"))
        tb = threading.Thread(target=produce, args=(b, "local"))
        ta.start()
        tb.start()
        ta.join(timeout=30)
        tb.join(timeout=30)
        assert not ta.is_alive() and not tb.is_alive()
        assert a.count() == 80
        assert a.count(source="coordinator") == 40
        assert a.count(source="local") == 40
        a.close()
        b.close()


class TestStats:
    def test_stats_counts_rows_jobs_versions(self, tmp_path):
        with ResultsWarehouse(tmp_path / "wh.sqlite") as wh:
            wh.record_result(result(), job_id="job-1")
            wh.record_result(result("E14", spec_hash="h2"), job_id="job-2")
            wh.flush()
            stats = wh.stats()
        assert stats["results"] == 2
        assert stats["jobs"] == 2
        assert stats["code_versions"] == 1
        assert stats["first_recorded_at"] <= stats["last_recorded_at"]
