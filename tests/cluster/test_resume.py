"""Crash-resume: kill a worker, kill the coordinator, lose nothing.

The acceptance bar from the issue: a sweep run on a coordinator with
workers — including a worker killed mid-run and a coordinator
``--resume`` after restart — produces a merged report identical to the
serial ``repro run --sweep``, with zero re-executions of
journal-completed specs.  The journal's lease trail is the proof: no
spec hash completed before the crash may appear in a lease event after
the ``resume`` marker.
"""

import json
import time
from collections import Counter

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.journal import JobJournal
from repro.cluster.worker import BackgroundWorker
from repro.engine.executor import execute
from repro.engine.registry import scenario, unregister
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer
from repro.service.shard import expand_sweep
from repro.telemetry.warehouse import ResultsWarehouse

AXES = {"k": [1, 2, 3, 4, 5, 6]}
BASE_PARAMS = {"k": 1, "delay": 0.25}
LEASE_TIMEOUT_S = 3.0


@pytest.fixture(scope="module", autouse=True)
def resume_scenarios():
    @scenario("_rs_slow", params=dict(BASE_PARAMS))
    def _slow(k=1, delay=0.25):
        time.sleep(delay)
        return {"rows": [{"k": k, "sq": k * k}], "verdict": {"ok": True}}

    yield
    unregister("_rs_slow")


@pytest.fixture(scope="module")
def base_spec():
    return ScenarioSpec("_rs_slow", BASE_PARAMS)


@pytest.fixture(scope="module")
def serial_payloads(base_spec):
    report = execute(expand_sweep(base_spec, AXES), backend="serial")
    return sorted(
        json.dumps(r.comparable_payload(), sort_keys=True) for r in report
    )


def payloads(results):
    return sorted(
        json.dumps(r.comparable_payload(), sort_keys=True) for r in results
    )


class TestCoordinatorResume:
    def test_worker_and_coordinator_crash_then_resume_to_parity(
        self, tmp_path, base_spec, serial_payloads
    ):
        journal_path = tmp_path / "journal.jsonl"

        # -- phase 1: run with two workers, SIGKILL one, then "crash"
        #    the coordinator itself after a couple of completions
        coordinator = ClusterCoordinator(
            port=0, journal_path=str(journal_path),
            lease_timeout_s=LEASE_TIMEOUT_S,
        )
        crash_server = BackgroundServer(server=coordinator).start()
        victim = BackgroundWorker(crash_server.host, crash_server.port,
                                  name="victim").start()
        plodder = BackgroundWorker(crash_server.host, crash_server.port,
                                   name="plodder").start()
        client = ServiceClient(crash_server.host, crash_server.port,
                               timeout=60)
        pre_crash = []
        for result in client.submit_iter([base_spec], sweep=AXES):
            pre_crash.append(result)
            if len(pre_crash) == 1:
                victim.kill()          # worker death mid-sweep...
            if len(pre_crash) == 2:
                break                  # ...then coordinator death
        job_id = client.last_job
        crash_server.stop()            # pool aborts; no job-done record
        client.close()
        plodder.stop()

        state = JobJournal.replay(journal_path)
        job = state.jobs[job_id]
        assert not job.finished        # the crash left it running
        assert len(job.results) >= 2
        completed_hashes = job.completed_hashes()
        pending = job.pending_specs()
        assert pending                 # there is work left to resume
        leases_before_resume = len(state.leases)

        # -- phase 2: restart with --resume semantics and a fresh worker
        resumed = ClusterCoordinator(
            port=0, journal_path=str(journal_path), resume=True,
            lease_timeout_s=LEASE_TIMEOUT_S,
        )
        with BackgroundServer(server=resumed) as bg:
            worker = BackgroundWorker(bg.host, bg.port,
                                      name="finisher").start()
            try:
                with ServiceClient(bg.host, bg.port, timeout=60) as c2:
                    merged = list(c2.stream_job(job_id))
                    assert c2.last_done["total"] == 6
                    assert c2.last_done["failed"] == 0
                # zero re-executions: the fresh worker ran exactly the
                # journal-pending specs, nothing more
                assert worker.worker.executed == len(pending)
            finally:
                worker.stop()

        # merged report identical to the uninterrupted serial sweep
        assert payloads(merged) == serial_payloads

        # and the journal agrees: after the resume marker, no lease
        # ever named a spec that was completed before the crash
        final = JobJournal.replay(journal_path)
        assert final.resumes == 1
        assert final.jobs[job_id].finished
        post_resume_leases = final.leases[leases_before_resume:]
        assert post_resume_leases     # the resumed work was leased
        assert not [
            spec_hash
            for (_job, spec_hash, _worker) in post_resume_leases
            if spec_hash in completed_hashes
        ]

    def test_resume_with_nothing_pending_just_closes_the_job(
        self, tmp_path, base_spec
    ):
        # every spec completed before the crash; only job-done was lost
        journal_path = tmp_path / "journal.jsonl"
        specs = expand_sweep(base_spec, {"k": [1, 2]})
        journal = JobJournal(journal_path)
        journal.record_submit("job-1", specs)
        for spec in specs:
            from repro.engine.executor import run_spec

            journal.record_complete("job-1", run_spec(spec))
        journal.close()

        resumed = ClusterCoordinator(
            port=0, journal_path=str(journal_path), resume=True,
            lease_timeout_s=LEASE_TIMEOUT_S,
        )
        with BackgroundServer(server=resumed) as bg:
            # no workers at all: nothing needs executing
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                merged = list(client.stream_job("job-1"))
                assert len(merged) == 2
                assert client.last_done["failed"] == 0
        final = JobJournal.replay(journal_path)
        assert final.jobs["job-1"].finished
        assert final.leases == []  # nothing was ever re-leased

    def test_finished_jobs_survive_restart_for_late_streams(
        self, tmp_path, base_spec
    ):
        journal_path = tmp_path / "journal.jsonl"
        first = ClusterCoordinator(
            port=0, journal_path=str(journal_path),
            lease_timeout_s=LEASE_TIMEOUT_S,
        )
        with BackgroundServer(server=first) as bg:
            worker = BackgroundWorker(bg.host, bg.port, name="w").start()
            try:
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    done = client.submit(
                        [base_spec], sweep={"k": [1, 2, 3]}
                    )
                    job_id = client.last_job
            finally:
                worker.stop()

        resumed = ClusterCoordinator(
            port=0, journal_path=str(journal_path), resume=True,
            lease_timeout_s=LEASE_TIMEOUT_S,
        )
        with BackgroundServer(server=resumed) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                replayed = list(client.stream_job(job_id))
                status = client.status_full(job_id)["jobs"]
        assert payloads(replayed) == payloads(done)
        assert status[job_id]["state"] == "done"

    def test_duplicate_specs_keep_their_multiplicity_across_resume(
        self, tmp_path, base_spec
    ):
        # a sweep may legitimately submit the same spec twice (e.g.
        # --sweep seed=1,1): after a crash with one copy completed, the
        # resume still owes exactly one more execution — not zero
        # (hash-dedup) and not two
        from repro.engine.executor import run_spec

        journal_path = tmp_path / "journal.jsonl"
        spec = base_spec.with_params(k=5)
        journal = JobJournal(journal_path)
        journal.record_submit("job-1", [spec, spec])
        journal.record_complete("job-1", run_spec(spec))
        journal.close()

        state = JobJournal.replay(journal_path)
        assert len(state.jobs["job-1"].pending_specs()) == 1

        resumed = ClusterCoordinator(
            port=0, journal_path=str(journal_path), resume=True,
            lease_timeout_s=LEASE_TIMEOUT_S,
        )
        with BackgroundServer(server=resumed) as bg:
            worker = BackgroundWorker(bg.host, bg.port, name="w").start()
            try:
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    merged = list(client.stream_job("job-1"))
                    assert len(merged) == 2
                    assert client.last_done["total"] == 2
                assert worker.worker.executed == 1
            finally:
                worker.stop()

    def test_job_ids_continue_after_resume(self, tmp_path, base_spec):
        journal_path = tmp_path / "journal.jsonl"
        journal = JobJournal(journal_path)
        journal.record_submit("job-3", [base_spec])
        journal.record_job_done("job-3", "done")
        journal.close()

        resumed = ClusterCoordinator(
            port=0, journal_path=str(journal_path), resume=True,
            lease_timeout_s=LEASE_TIMEOUT_S,
        )
        with BackgroundServer(server=resumed) as bg:
            worker = BackgroundWorker(bg.host, bg.port, name="w").start()
            try:
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    client.submit([base_spec.with_params(k=9)])
                    # never reuse a journaled id for new work
                    assert client.last_job == "job-4"
            finally:
                worker.stop()


class TestWarehouseBackfill:
    """A row commits after its ``complete`` record is flushed, so a
    coordinator killed in between leaves the warehouse short of the
    journal; ``--resume`` records the shortfall."""

    @staticmethod
    def banked(spec):
        return ScenarioResult(
            name=spec.name, spec_hash=spec.content_hash,
            params=spec.params_dict(), seed=spec.seed,
            rows=[{"k": spec.params_dict()["k"]}], verdict={"ok": True},
        )

    @staticmethod
    def resume(journal_path, warehouse_path):
        coordinator = ClusterCoordinator(
            port=0, journal_path=str(journal_path), resume=True,
            lease_timeout_s=LEASE_TIMEOUT_S, warehouse=warehouse_path,
        )
        # no workers: every spec completed before the "crash"; stopping
        # the coordinator closes (and so commits) its warehouse
        BackgroundServer(server=coordinator).start().stop()

    def test_resume_records_the_rows_a_crash_lost(self, tmp_path,
                                                   base_spec):
        journal_path = tmp_path / "journal.jsonl"
        warehouse_path = tmp_path / "wh.sqlite"
        specs = expand_sweep(base_spec, {"k": [1, 2, 3, 4, 5, 6]})
        specs += specs[:2]  # duplicates count per spec hash
        results = [self.banked(spec) for spec in specs]
        journal = JobJournal(journal_path)
        journal.record_submit("job-1", specs)
        for result in results:
            journal.record_complete("job-1", result)
        journal.close()
        # the crash lost three rows: two singles and a duplicate's copy
        with ResultsWarehouse(warehouse_path) as wh:
            wh.record_results(results[:4] + results[6:7], job_id="job-1")

        journaled = Counter(r.spec_hash for r in results)
        for _attempt in range(2):  # a second resume adds no rows
            self.resume(journal_path, warehouse_path)
            rows = ResultsWarehouse(warehouse_path).query(job="job-1")
            assert len(rows) == len(results)
            assert Counter(row["spec_hash"] for row in rows) == journaled
