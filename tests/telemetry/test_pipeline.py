"""Telemetry through the real pipeline: backends, servers, the cluster.

These tests assert the PR's headline invariant: every result a sweep
streams back is also a warehouse row — whether it ran through a
``LocalBackend``, a ``ScenarioServer``, or a sharded cluster sweep —
and the warehouse's view (row count, headline metrics) matches the
merged report.
"""

import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.worker import BackgroundWorker
from repro.engine.registry import scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service.backend import LocalBackend
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer
from repro.service.shard import expand_sweep
from repro.telemetry.events import BUS
from repro.telemetry.warehouse import ResultsWarehouse


@pytest.fixture(scope="module", autouse=True)
def pipeline_scenarios():
    @scenario("_wh_sq", params={"k": 1})
    def _sq(k=1):
        return {"rows": [{"k": k}], "verdict": {"sq": float(k * k)}}

    @scenario("_wh_bad", params={"k": 1})
    def _bad(k=1):
        raise RuntimeError("deliberate failure")

    yield
    unregister("_wh_sq")
    unregister("_wh_bad")


class TestLocalBackendRecording:
    def test_every_result_lands_as_a_row(self, tmp_path):
        wh = ResultsWarehouse(tmp_path / "wh.sqlite")
        backend = LocalBackend(cache=None, warehouse=wh)
        specs = expand_sweep(
            ScenarioSpec("_wh_sq", {"k": 1}), {"k": [1, 2, 3]}
        )
        results = backend.run(specs, label="job-x")
        wh.flush()
        assert len(results) == 3
        rows = wh.query(job="job-x")
        assert len(rows) == 3
        assert {r["headline_value"] for r in rows} == {1.0, 4.0, 9.0}
        wh.close()

    def test_failures_are_rows_with_hash_and_wall_time(self, tmp_path):
        wh = ResultsWarehouse(tmp_path / "wh.sqlite")
        backend = LocalBackend(cache=None, warehouse=wh)
        spec = ScenarioSpec("_wh_bad", {"k": 1})
        (res,) = backend.run([spec])
        wh.flush()
        (row,) = wh.query(status="error")
        assert row["spec_hash"] == spec.content_hash == res.spec_hash
        assert row["wall_time_s"] >= 0.0
        assert "deliberate failure" in row["error"]
        wh.close()

    def test_cache_replays_are_flagged(self, tmp_path):
        from repro.engine.cache import ResultCache

        wh = ResultsWarehouse(tmp_path / "wh.sqlite")
        cache = ResultCache(tmp_path / "cache")
        backend = LocalBackend(cache=cache, warehouse=wh)
        spec = ScenarioSpec("_wh_sq", {"k": 5})
        backend.run([spec])
        backend.run([spec])  # second run replays from the cache
        wh.flush()
        assert wh.count(spec_hash=spec.content_hash) == 2
        assert wh.count(spec_hash=spec.content_hash, cached=True) == 1
        wh.close()


class TestExecutorInstrumentation:
    def test_job_events_carry_the_spec_hash(self):
        from repro.engine.executor import execute

        seen = []
        BUS.subscribe(seen.append)
        try:
            spec = ScenarioSpec("_wh_sq", {"k": 2})
            execute([spec], backend="serial")
        finally:
            BUS.unsubscribe(seen.append)
        engine = [e for e in seen if e.component == "engine.executor"]
        kinds = [e.kind for e in engine]
        assert "job-start" in kinds and "job-finish" in kinds
        assert all(e.spec_hash == spec.content_hash for e in engine)

    def test_metrics_count_completions_and_failures(self):
        from repro.engine.executor import execute
        from repro.telemetry.metrics import METRICS

        before_ok = METRICS.counter("engine.jobs_completed").value
        before_bad = METRICS.counter("engine.jobs_failed").value
        execute(
            [ScenarioSpec("_wh_sq", {"k": 2}),
             ScenarioSpec("_wh_bad", {"k": 1})],
            backend="serial",
        )
        assert METRICS.counter("engine.jobs_completed").value \
            == before_ok + 1
        assert METRICS.counter("engine.jobs_failed").value \
            == before_bad + 1


class TestServerStatusFrame:
    def test_status_full_carries_metrics(self):
        with BackgroundServer(LocalBackend()) as bg:
            with ServiceClient(bg.host, bg.port, timeout=10) as client:
                client.submit([ScenarioSpec("_wh_sq", {"k": 2})])
                full = client.status_full()
        assert isinstance(full["metrics"], dict)
        counters = full["metrics"]["counters"]
        assert counters.get("service.submits", 0) >= 1
        assert counters.get("service.results_streamed", 0) >= 1
        assert full["cluster"] is None  # plain server, no pool


class TestClusterWarehouseParity:
    def test_sharded_sweep_report_matches_warehouse(self, tmp_path):
        """Row-count and headline-metric parity with the merged report."""
        wh_path = tmp_path / "wh.sqlite"
        coordinator = ClusterCoordinator(
            port=0, journal_path=None, lease_timeout_s=5.0,
            warehouse=wh_path,
        )
        with BackgroundServer(server=coordinator) as bg:
            workers = [
                BackgroundWorker(
                    bg.host, bg.port, name=f"wh-w{i}", cache=None,
                ).start()
                for i in range(2)
            ]
            try:
                with ServiceClient(bg.host, bg.port, timeout=30) as client:
                    results = client.submit(
                        [ScenarioSpec("_wh_sq", {"k": 1})],
                        sweep={"k": [1, 2, 3, 4, 5, 6]},
                    )
                    job_id = client.last_job
            finally:
                for w in workers:
                    w.stop()
        coordinator.warehouse.flush()
        assert len(results) == 6
        with ResultsWarehouse(wh_path) as reader:
            rows = reader.query(job=job_id)
            assert len(rows) == len(results)
            assert {r["headline_value"] for r in rows} == {
                float(k * k) for k in range(1, 7)
            }
            assert all(r["source"] == "coordinator" for r in rows)
            agg = reader.aggregate(
                ["count:", "mean:wall_time"], group_by="job_id",
                job=job_id,
            )
            assert agg[0]["count"] == 6

    def test_cluster_events_carry_correlation_ids(self, tmp_path):
        seen = []
        BUS.subscribe(seen.append)
        try:
            coordinator = ClusterCoordinator(
                port=0, journal_path=None, lease_timeout_s=5.0,
            )
            with BackgroundServer(server=coordinator) as bg:
                with BackgroundWorker(
                    bg.host, bg.port, name="ev-w", cache=None,
                ):
                    with ServiceClient(
                        bg.host, bg.port, timeout=30
                    ) as client:
                        client.submit(
                            [ScenarioSpec("_wh_sq", {"k": 3})]
                        )
                        job_id = client.last_job
        finally:
            BUS.unsubscribe(seen.append)
        kinds = {e.kind for e in seen}
        assert "worker-register" in kinds
        assert "lease-grant" in kinds
        assert "lease-complete" in kinds
        grants = [e for e in seen if e.kind == "lease-grant"]
        assert any(e.job_id == job_id for e in grants)
        lease_starts = [e for e in seen if e.kind == "lease-start"]
        assert lease_starts and all(
            e.job_id == job_id and e.spec_hash for e in lease_starts
        )

    def test_coordinator_status_includes_pool_state(self):
        coordinator = ClusterCoordinator(
            port=0, journal_path=None, lease_timeout_s=5.0,
        )
        with BackgroundServer(server=coordinator) as bg:
            with BackgroundWorker(
                bg.host, bg.port, name="st-w", cache=None,
            ):
                deadline = time.time() + 10
                cluster = None
                with ServiceClient(bg.host, bg.port, timeout=10) as client:
                    while time.time() < deadline:
                        cluster = client.status_full()["cluster"]
                        if cluster and cluster.get("workers"):
                            break
                        time.sleep(0.05)
        assert cluster is not None
        assert len(cluster["workers"]) == 1
        assert "steals" in cluster and "queued" in cluster
