"""One JSON encoding per result, carried by every record of it.

A :class:`ScenarioResult` is encoded once (:meth:`ScenarioResult.
to_json`); the worker's cache row and ``lease-result`` frame, the
coordinator's journal record, snapshot entry and client ``result``
frame all splice that text in.  Each must still decode to what the
result's own ``to_dict`` gives through ``json.dumps(..., default=str)``,
and records written before the splicing must still replay.

A listener keeps each result as a :class:`ResultRecord` around that
text, and a coordinator passes on the text its worker sent: every
record it writes carries the bytes a decode-and-re-encode would have
written, and no decoded result stays behind in its jobs or journal.
"""

import dataclasses
import json
import socket
import sqlite3
from collections import deque

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.journal import JobJournal
from repro.cluster.worker import BackgroundWorker, ClusterWorker
from repro.engine import registry
from repro.engine.cache import ResultCache
from repro.engine.results import ResultRecord, ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.backend import LocalBackend
from repro.service.client import ServiceClient
from repro.service.protocol import ProtocolError
from repro.service.server import BackgroundServer, ScenarioServer
from repro.telemetry.warehouse import ResultsWarehouse


class Opaque:
    """A value JSON cannot encode: it travels as its ``str()``."""

    def __str__(self):
        return "opaque-42"


SPEC = ScenarioSpec(
    "E1", {"grid": {"x": 4, "y": [1, 2]}, "label": "Größe ≤ 4 µm"}, seed=3,
)


def make_result(**overrides):
    fields = dict(
        name=SPEC.name,
        spec_hash=SPEC.content_hash,
        params=SPEC.params_dict(),
        seed=SPEC.seed,
        tags=("smoke",),
        claim="naïve ratio",
        verdict={"ok": True, "ratio": 1.5},
        rows=[{"node": "n°1", "value": Opaque(), "pair": (1, 2)}],
        elapsed_s=0.125,
        backend="serial",
    )
    fields.update(overrides)
    return ScenarioResult(**fields)


def expected(result):
    """What every record of ``result`` decoded to before the splicing."""
    return json.loads(json.dumps(result.to_dict(), default=str))


class StubBackend:
    """Stands in for a worker's LocalBackend: answers every spec with
    one prebuilt result."""

    def __init__(self, result):
        self.result = result

    def run(self, specs, progress=None, *, label=None):
        if progress is not None:
            progress(self.result)
        return [self.result]


class FrameRecorder:
    """Stands in for a worker's connection; keeps each frame's bytes."""

    def __init__(self):
        self.frames = []

    def send(self, message, result_json=None):
        self.frames.append(protocol.encode_frame(message, result_json))


def lease_result_frame(result):
    worker = ClusterWorker("127.0.0.1", 1, backend=StubBackend(result))
    worker._client = recorder = FrameRecorder()
    worker._execute_lease({"v": 1, "type": "lease", "lease": "lease-1",
                           "spec": SPEC.to_dict(), "job": "job-1"})
    (frame,) = recorder.frames
    return frame


class TestToJson:
    def test_encoded_once_and_outside_equality(self):
        result = make_result()
        text = result.to_json()
        assert result.to_json() is text
        assert json.loads(text) == expected(result)
        copy = dataclasses.replace(result)
        assert "_json" not in copy.__dict__
        assert copy == result  # the kept text is no field
        assert json.loads(result.as_cached().to_json())["cached"] is True


class TestRecordsDecodeAsBefore:
    def test_journal_complete_line_and_snapshot_entry(self, tmp_path):
        result = make_result()
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.record_submit("job-1", [SPEC])
        journal.record_complete("job-1", result)
        line = journal.path.read_text().splitlines()[-1]
        assert line == json.dumps(
            {"e": "complete", "job": "job-1", "result": result.to_dict()},
            separators=(",", ":"), default=str,
        )
        journal.compact()
        journal.close()
        snapshot = json.loads(journal.snapshot_path.read_text())
        assert snapshot["format"] == JobJournal.SNAPSHOT_FORMAT
        (entry,) = snapshot["jobs"]
        assert entry["specs"] == json.loads(json.dumps([SPEC.to_dict()]))
        assert entry["results"] == [expected(result)]
        replayed = JobJournal.replay(journal.path)
        assert replayed.from_snapshot
        (banked,) = replayed.jobs["job-1"].results
        assert banked.decode().to_dict() == expected(result)

    def test_client_result_frame(self):
        result = make_result()
        with BackgroundServer(StubBackend(result)) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                client.send(protocol.make_submit([SPEC.to_dict()]))
                assert client.recv()["type"] == "ack"
                frame = client.recv()
        assert frame["type"] == "result"
        assert frame["result"] == expected(result)

    def test_worker_lease_result_frame(self):
        result = make_result()
        frame = lease_result_frame(result)
        assert frame == protocol.encode_frame(
            protocol.make_lease_result("lease-1", result.to_dict())
        )
        assert protocol.decode_frame(frame)["result"] == expected(result)

    def test_cache_row_and_a_hit_frame(self, tmp_path):
        result = make_result()
        cache = ResultCache(tmp_path, code_version="v1")
        cache.put(result)
        with sqlite3.connect(cache.path) as conn:
            (payload,) = conn.execute(
                "SELECT payload FROM results").fetchone()
        assert json.loads(payload) == expected(result)
        hit = cache.get(SPEC)
        assert hit.to_dict() == {**expected(result), "code_version": "v1",
                                 "cached": True, "backend": "cache"}
        frame = protocol.encode_frame(protocol.make_lease_result("lease-1"),
                                      hit.to_json())
        assert b'"cached":true' in frame and b'"backend":"cache"' in frame


class TestClientKeepsTheFrameText:
    def test_a_streamed_result_is_not_encoded_again(self, monkeypatch):
        result = make_result()
        want = expected(result)
        with BackgroundServer(StubBackend(result)) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                (got,) = client.submit([SPEC])
        encodes = []
        monkeypatch.setattr(ScenarioResult, "to_dict", encodes.append)
        text = got.to_json()
        assert encodes == []
        assert json.loads(text) == want

    def test_a_frame_without_spliced_text_decodes_from_its_dict(self):
        result = make_result()
        message = protocol.make_result("job-1", 0, expected(result))
        # ``result`` first: there is no trailing field text to keep
        frame = {"result": message.pop("result"), **message}
        done = protocol.make_done("job-1", total=1, executed=1,
                                  cached=0, failed=0)
        with BackgroundServer(StubBackend(result)) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                client._decoder.feed(json.dumps(frame).encode() + b"\n"
                                     + protocol.encode_frame(done))
                (got,) = list(client._result_stream())
                assert client.last_done["total"] == 1
        assert "_json" not in got.__dict__
        assert expected(got) == expected(result)


class TestWorkerCache:
    """A worker built with ``cache=`` files each lease's result there
    and answers a repeated lease from it."""

    def lease(self, worker, spec):
        worker._client = recorder = FrameRecorder()
        worker._execute_lease({"v": 1, "type": "lease", "lease": "l-1",
                               "spec": spec.to_dict(), "job": "job-1"})
        (frame,) = recorder.frames
        return protocol.decode_frame(frame)["result"]

    def test_a_lease_result_lands_in_the_worker_cache(self, tmp_path):
        worker = ClusterWorker("127.0.0.1", 1, cache=tmp_path / "cache")
        spec = registry.get("E1").spec
        try:
            result = self.lease(worker, spec)
            assert result["status"] == "ok" and not result["cached"]
            assert spec in worker.backend.cache
        finally:
            worker.backend.cache.close()

    def test_a_repeated_lease_is_answered_from_the_cache(self, tmp_path):
        spec = registry.get("E1").spec
        first = ClusterWorker("127.0.0.1", 1, cache=tmp_path / "cache")
        fresh = self.lease(first, spec)
        first.backend.cache.close()
        second = ClusterWorker("127.0.0.1", 1, cache=tmp_path / "cache")
        try:
            replayed = self.lease(second, spec)
        finally:
            second.backend.cache.close()
        assert replayed["cached"] and replayed["backend"] == "cache"
        assert replayed["rows"] == fresh["rows"]


class TestOlderRecordsStillRead:
    def test_parent_written_journal_and_snapshot_replay(self, tmp_path):
        result = make_result()
        path = tmp_path / "journal.jsonl"
        # the older writer: whole-dict dumps, the snapshot with
        # json's default separators, one complete record in the tail
        snapshot = {
            "format": 1, "generation": 1, "t": 0.0, "resumes": 0,
            "job_number_floor": 1,
            "jobs": [{"id": "job-1", "state": "running",
                      "specs": [SPEC.to_dict(), SPEC.to_dict()],
                      "results": [result.to_dict()]}],
        }
        path.with_name(path.name + ".snapshot").write_text(
            json.dumps(snapshot, default=str))
        tail = [{"e": "compacted", "gen": 1, "t": 0.0},
                {"e": "complete", "job": "job-1",
                 "result": result.to_dict()}]
        path.write_text("".join(
            json.dumps(event, separators=(",", ":"), default=str) + "\n"
            for event in tail))
        state = JobJournal.replay(path)
        assert state.from_snapshot and not state.dropped_lines
        results = state.jobs["job-1"].results
        assert [r.decode().to_dict() for r in results] == (
            [expected(result)] * 2)

    def test_cache_rows_with_a_stamped_version_still_decode(self, tmp_path):
        result = make_result()
        cache = ResultCache(tmp_path, code_version="v1")
        cache.put(make_result(spec_hash="placeholder"))  # makes the store
        stamped = {**result.to_dict(), "code_version": "v1",
                   "cached": False}
        with sqlite3.connect(cache.path) as conn:
            conn.execute(
                "INSERT INTO results (code_version, spec_hash, payload)"
                " VALUES (?, ?, ?)",
                ("v1", SPEC.content_hash, json.dumps(stamped, default=str)))
        assert cache.get(SPEC).to_dict() == {
            **expected(result), "code_version": "v1", "cached": True,
            "backend": "cache"}


class TestOversizedResults:
    @pytest.fixture()
    def small_frames(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)

    def big_result(self):
        return make_result(rows=[{"blob": "x" * 8192}])

    def test_encode_frame_keeps_its_ceiling(self, small_frames):
        with pytest.raises(ProtocolError) as info:
            protocol.encode_frame(protocol.make_lease_result("lease-1"),
                                  self.big_result().to_json())
        assert info.value.code == "frame-too-large" and info.value.fatal

    def test_worker_reports_a_slim_error_instead(self, small_frames):
        frame = protocol.decode_frame(lease_result_frame(self.big_result()))
        assert frame["result"]["status"] == "error"
        assert frame["result"]["spec_hash"] == SPEC.content_hash
        assert "result dropped: frame-too-large" in frame["result"]["error"]

    def test_server_sends_a_frame_too_large_error(self, small_frames):
        server = ScenarioServer(StubBackend(self.big_result()), port=0)
        with BackgroundServer(server=server) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                client.send(protocol.make_submit([SPEC.to_dict()]))
                assert client.recv()["type"] == "ack"
                error = client.recv()
        assert error["type"] == "error" and error["job"] == "job-1"
        assert error["code"] == "frame-too-large"


# -- listeners keep records, and a coordinator the worker's own text ---------


def e1_specs(*seeds):
    base = registry.get("E1").spec
    return [ScenarioSpec("E1", base.params_dict(), seed=seed,
                         tags=base.tags) for seed in seeds]


def raw_frames(host, port, request):
    """The raw lines a listener answers ``request`` with, up to the
    stream's ``done`` (or an error)."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(protocol.encode_frame(request))
        buffer, lines = b"", []
        while True:
            chunk = sock.recv(65536)
            assert chunk, "connection closed before the stream ended"
            buffer += chunk
            *complete, buffer = buffer.split(b"\n")
            lines.extend(complete)
            if any(json.loads(line)["type"] in ("done", "error")
                   for line in complete):
                return lines


def result_frames(lines):
    return [line for line in lines if json.loads(line)["type"] == "result"]


def re_encoded(worker_text):
    """The text a coordinator that decodes each worker result and
    encodes it again would write for ``worker_text``."""
    return ScenarioResult.from_dict(json.loads(worker_text)).to_json()


def reachable(roots, kind):
    """Every ``kind`` instance reachable from ``roots`` through builtin
    containers and the attributes of the program's own objects."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    stack.append(getattr(obj, slot, None))
    return found


class TestResultRecord:
    def test_keeps_the_text_and_the_fields_job_counts_read(self):
        result = make_result(status="error", cached=True)
        record = ResultRecord.of(result)
        assert record.text is result.to_json()
        assert record.to_json() is record.text
        assert (record.spec_hash, record.status, record.cached) == (
            SPEC.content_hash, "error", True)
        assert not record.ok and ResultRecord.of(make_result()).ok
        assert ResultRecord.of(record) is record

    def test_decode_rebuilds_the_result_around_the_same_text(self):
        result = make_result()
        record = ResultRecord.of(result)
        decoded = record.decode()
        assert decoded.to_dict() == expected(result)
        assert decoded.to_json() is record.text  # no second encoding


class TestCoordinatorPassesWorkerTextOn:
    @pytest.mark.parametrize("token", [None, "s3cret"])
    def test_frames_journal_and_snapshot_hold_the_re_encoded_bytes(
            self, tmp_path, token):
        result = make_result()
        worker_text = result.to_json()
        # what every record held when the coordinator re-encoded
        expected_text = re_encoded(worker_text)
        assert expected_text == worker_text
        coordinator = ClusterCoordinator(
            port=0, journal_path=str(tmp_path / "journal.jsonl"),
            auth_token=token,
        )
        with BackgroundServer(server=coordinator) as bg:
            with BackgroundWorker(bg.host, bg.port, name="w",
                                  backend=StubBackend(result),
                                  auth_token=token):
                lines = raw_frames(bg.host, bg.port, protocol.attach_token(
                    protocol.make_submit([SPEC.to_dict()]), token))
            journal = coordinator.journal
            complete = [line for line in journal.path.read_text()
                        .splitlines() if '"e":"complete"' in line]
            journal.compact()
            snapshot = journal.snapshot_path.read_text()
        assert result_frames(lines) == [protocol.encode_frame(
            protocol.make_result("job-1", 0), expected_text).rstrip(b"\n")]
        assert complete == [
            '{"e":"complete","job":"job-1","result":%s}' % expected_text]
        assert '"results": [%s]}' % expected_text in snapshot

    def test_no_decoded_result_stays_reachable(self, tmp_path):
        specs = e1_specs(1, 2, 3)
        coordinator = ClusterCoordinator(
            port=0, journal_path=str(tmp_path / "journal.jsonl"),
            warehouse=tmp_path / "wh.sqlite",
        )
        with BackgroundServer(server=coordinator) as bg:
            with BackgroundWorker(bg.host, bg.port, name="w"):
                with ServiceClient(bg.host, bg.port, timeout=30) as client:
                    assert len(client.submit(specs)) == 3
            roots = [coordinator.jobs, coordinator.journal.state]
            assert not reachable(roots, ScenarioResult)
            for root in roots:  # the walk does reach the results
                assert len(reachable([root], ResultRecord)) == 3
        server = ScenarioServer(LocalBackend(), port=0)
        with BackgroundServer(server=server) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                assert len(client.submit(specs)) == 3
            assert not reachable([server.jobs], ScenarioResult)
            assert len(reachable([server.jobs], ResultRecord)) == 3


class TestResumeRestreamsTheSameBytes:
    def test_snapshot_and_tail_records_resume_as_records(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        warehouse_path = tmp_path / "wh.sqlite"
        first = ClusterCoordinator(port=0, journal_path=str(journal_path),
                                   warehouse=warehouse_path)
        streams = {}
        with BackgroundServer(server=first) as bg:
            with BackgroundWorker(bg.host, bg.port, name="w"):
                for job_id, seeds in (("job-1", (1, 2)), ("job-2", (3, 4))):
                    if job_id == "job-2":  # job-1's records: the snapshot
                        first.journal.compact()
                    streams[job_id] = result_frames(raw_frames(
                        bg.host, bg.port, protocol.make_submit(
                            [s.to_dict() for s in e1_specs(*seeds)])))
        # the crash lost one row of each job: one from the snapshot
        # and one from the tail
        lost = {(job_id, json.loads(frames[1])["result"]["spec_hash"])
                for job_id, frames in streams.items()}
        with sqlite3.connect(warehouse_path) as conn:
            conn.executemany(
                "DELETE FROM results WHERE job_id = ? AND spec_hash = ?",
                sorted(lost))

        resumed = ClusterCoordinator(port=0, journal_path=str(journal_path),
                                     resume=True, warehouse=warehouse_path)
        backfilled = []
        record_results = resumed.warehouse.record_results

        def spy(results, *, job_id="", **kwargs):
            backfilled.extend((job_id, r) for r in results)
            return record_results(results, job_id=job_id, **kwargs)

        resumed.warehouse.record_results = spy
        with BackgroundServer(server=resumed) as bg:
            state = resumed.journal.state
            assert state.from_snapshot
            for job_id, frames in streams.items():
                records = resumed.jobs[job_id].results
                assert all(type(r) is ResultRecord for r in records)
                assert all(a is b for a, b in zip(
                    records, state.jobs[job_id].results, strict=True))
                # --attach: the same bytes as the first stream
                assert result_frames(raw_frames(
                    bg.host, bg.port, protocol.make_stream(job_id))) == frames
        assert {(job_id, r.spec_hash) for job_id, r in backfilled} == lost
        assert len(backfilled) == len(lost)
        assert all(type(r) is ScenarioResult for _job, r in backfilled)
        with ResultsWarehouse(warehouse_path) as warehouse:
            assert warehouse.count() == 4
