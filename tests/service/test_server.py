"""The asyncio service end-to-end: fidelity, streaming, faults, sharding.

Every test runs a real server on an ephemeral localhost port via
:class:`BackgroundServer`; the registry is shared process state, so the
slow/fast scenarios registered here are visible server-side too.
"""

import json
import socket
import time

import pytest

from repro.engine.executor import execute, run_spec
from repro.engine.registry import get, scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.backend import LocalBackend
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import BackgroundServer
from repro.service.shard import expand_sweep

SLOW_S = 0.5


@pytest.fixture(scope="module", autouse=True)
def service_scenarios():
    @scenario("_svc_fast", params={"n": 3})
    def _fast(n=3):
        return {"rows": [{"i": i} for i in range(n)],
                "verdict": {"ok": True}}

    @scenario("_svc_slow", params={"delay": SLOW_S})
    def _slow(delay=SLOW_S):
        time.sleep(delay)
        return {"rows": [{"slept": delay}], "verdict": {"ok": True}}

    @scenario("_svc_sweep", params={"n": 1, "gain": 1.0})
    def _sweep(n=1, gain=1.0):
        return {"rows": [{"value": i * gain} for i in range(n)],
                "verdict": {"ok": True}}

    yield
    for name in ("_svc_fast", "_svc_slow", "_svc_sweep"):
        unregister(name)


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(LocalBackend()) as bg:
        yield bg


@pytest.fixture
def client(server):
    with ServiceClient(server.host, server.port, timeout=30) as c:
        yield c


def raw_exchange(server, payload: bytes, frames: int = 1):
    """Push raw bytes at the server; collect reply lines."""
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        return [json.loads(reader.readline()) for _ in range(frames)]


class TestRoundTripFidelity:
    def test_smoke_spec_matches_local_run(self, client):
        spec = get("E1").spec  # smoke-tagged, cheap
        results = client.submit([spec])
        assert len(results) == 1
        assert (
            results[0].comparable_payload()
            == run_spec(spec).comparable_payload()
        )
        assert client.last_done["total"] == 1
        assert client.last_done["failed"] == 0

    def test_spec_hash_survives_the_wire(self, client):
        spec = get("E5").spec
        results = client.submit([spec])
        assert results[0].spec_hash == spec.content_hash

    def test_ping(self, client):
        assert client.ping()


class TestStreaming:
    def test_first_result_arrives_before_last_job_finishes(self, client):
        arrivals = []
        results = client.submit(
            [ScenarioSpec("_svc_fast"), ScenarioSpec("_svc_slow")],
            progress=lambda _r: arrivals.append(time.monotonic()),
        )
        assert [r.name for r in results] == ["_svc_fast", "_svc_slow"]
        # batched-at-the-end delivery would put both frames within a few
        # ms; incremental streaming separates them by the slow job's
        # full runtime
        assert arrivals[1] - arrivals[0] > SLOW_S * 0.6

    def test_reattach_replays_and_follows(self, server):
        with ServiceClient(server.host, server.port, timeout=30) as first:
            first.send(
                protocol.make_submit(
                    [{"name": "_svc_fast"}, {"name": "_svc_slow"}],
                    stream=False,
                )
            )
            job = first._recv_checked()["job"]
            with ServiceClient(server.host, server.port,
                               timeout=30) as second:
                second.send(protocol.make_stream(job))
                names = []
                while True:
                    frame = second._recv_checked()
                    if frame["type"] == "done":
                        break
                    names.append(frame["result"]["name"])
        assert names == ["_svc_fast", "_svc_slow"]

    def test_status_reports_job_states(self, client):
        client.submit([ScenarioSpec("_svc_fast")])
        jobs = client.status_full()["jobs"]
        assert jobs[client.last_job]["state"] == "done"
        assert jobs[client.last_job]["failed"] == 0

    def test_cancel_stops_mid_sweep(self, server):
        with ServiceClient(server.host, server.port, timeout=30) as c:
            # distinct delays => distinct spec hashes => four real jobs
            specs = [
                ScenarioSpec("_svc_slow", {"delay": 0.3 + i * 1e-6})
                for i in range(4)
            ]
            results = []
            for result in c.submit_iter(specs):
                results.append(result)
                if len(results) == 1:
                    c.send(protocol.make_cancel(c.last_job))
            assert c.last_done["cancelled"]
            assert len(results) < 4


class TestFaults:
    def test_unknown_scenario_is_a_structured_error(self, client):
        with pytest.raises(ServiceError) as info:
            client.submit([{"name": "E999"}])
        assert info.value.code == "unknown-scenario"
        # the connection (and server) survive: an immediate retry works
        assert client.submit([get("E1").spec])

    def test_malformed_spec_is_a_structured_error(self, client):
        with pytest.raises(ServiceError) as info:
            client.submit([{"params": {"n": 1}}])  # no name at all
        assert info.value.code == "bad-spec"
        with pytest.raises(ServiceError) as info:
            client.submit([{"name": "E1", "params": 7}])
        assert info.value.code == "bad-spec"

    def test_unknown_message_type_keeps_connection_alive(self, server):
        bad = json.dumps(
            {"v": protocol.PROTOCOL_VERSION, "type": "frobnicate"}
        ).encode() + b"\n"
        ping = protocol.encode_frame(protocol.make_ping())
        error, pong = raw_exchange(server, bad + ping, frames=2)
        assert error["type"] == "error" and error["code"] == "unknown-type"
        assert pong["type"] == "pong"

    def test_long_run_of_blank_lines_is_skipped(self, server):
        ping = protocol.encode_frame(protocol.make_ping())
        (pong,) = raw_exchange(server, b"\n" * 3000 + ping, frames=1)
        assert pong["type"] == "pong"

    def test_deeply_nested_json_reported_then_recovered(self, server):
        ping = protocol.encode_frame(protocol.make_ping())
        error, pong = raw_exchange(
            server, b"[" * 200_000 + b"\n" + ping, frames=2
        )
        assert error["code"] == "bad-json"
        assert pong["type"] == "pong"

    def test_version_mismatch_reported(self, server):
        bad = json.dumps({"v": 99, "type": "ping"}).encode() + b"\n"
        (error,) = raw_exchange(server, bad, frames=1)
        assert error["code"] == "version-mismatch"

    def test_garbage_line_reported_then_recovered(self, server):
        ping = protocol.encode_frame(protocol.make_ping())
        error, pong = raw_exchange(server, b"not json\n" + ping, frames=2)
        assert error["code"] == "bad-json"
        assert pong["type"] == "pong"

    def test_oversized_payload_is_fatal_but_contained(self, server):
        huge = b"x" * (protocol.MAX_FRAME_BYTES + 2)
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(huge)
            reader = sock.makefile("rb")
            error = json.loads(reader.readline())
            assert error["code"] == "frame-too-large"
            assert reader.readline() == b""  # server closed this conn
        # ...but the server itself is fine
        with ServiceClient(server.host, server.port, timeout=30) as c:
            assert c.ping()

    def test_client_disconnect_mid_stream_leaves_server_healthy(
        self, server
    ):
        drop = socket.create_connection((server.host, server.port),
                                        timeout=10)
        drop.sendall(
            protocol.encode_frame(
                protocol.make_submit([{"name": "_svc_slow"}])
            )
        )
        # read the ack so the job is definitely scheduled, then vanish
        drop.makefile("rb").readline()
        drop.close()
        with ServiceClient(server.host, server.port, timeout=30) as c:
            results = c.submit([ScenarioSpec("_svc_fast")])
            assert results[0].ok
            # the orphaned job ran to completion in the background
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                jobs = c.status_full()["jobs"]
                states = {j["state"] for j in jobs.values()}
                if "running" not in states:
                    break
                time.sleep(0.05)
            assert "running" not in states

    def test_unknown_job_ids_rejected(self, client):
        client.send(protocol.make_stream("job-999999"))
        with pytest.raises(ServiceError) as info:
            client._recv_checked()
        assert info.value.code == "unknown-job"


class TestShardedSweep:
    AXES = {"n": [1, 2, 3, 4], "gain": [1.0, 2.0]}
    BASE = ScenarioSpec("_svc_sweep", {"n": 1, "gain": 1.0})

    def test_sharded_sweep_matches_serial_sweep(self, client):
        serial = execute(
            expand_sweep(self.BASE, self.AXES), backend="serial"
        )
        streamed = client.submit([self.BASE], sweep=self.AXES)
        assert client.last_done["total"] == 8
        assert sorted(
            json.dumps(r.comparable_payload(), sort_keys=True)
            for r in streamed
        ) == sorted(
            json.dumps(r.comparable_payload(), sort_keys=True)
            for r in serial
        )

    def test_an_old_clients_shards_field_is_ignored(self, client):
        message = protocol.make_submit([self.BASE.to_dict()],
                                       sweep=self.AXES)
        message["shards"] = 4  # still sent by clients of older releases
        client.send(message)
        assert client._recv_checked()["type"] == "ack"
        hashes = []
        frame = client._recv_checked()
        while frame["type"] == "result":
            hashes.append(frame["result"]["spec_hash"])
            frame = client._recv_checked()
        assert frame["type"] == "done" and frame["total"] == 8
        assert sorted(hashes) == sorted(
            s.content_hash for s in expand_sweep(self.BASE, self.AXES)
        )

    def test_server_side_shard_selection(self, client):
        expanded = expand_sweep(self.BASE, self.AXES)
        streamed = client.submit(
            [self.BASE], sweep=self.AXES, shard=(1, 4)
        )
        wanted = expanded[1::4]
        assert [r.spec_hash for r in streamed] == [
            s.content_hash for s in wanted
        ]


class TestLifecycle:
    def test_shutdown_message_stops_the_server(self):
        with BackgroundServer(LocalBackend()) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30) as c:
                assert c.ping()
                c.shutdown()
            bg._thread.join(timeout=10)
            assert not bg._thread.is_alive()
            with pytest.raises(ServiceError):
                ServiceClient(bg.host, bg.port, timeout=1)

    def test_cache_replay_executes_zero(self, tmp_path):
        backend = LocalBackend(cache=tmp_path / "cache")
        with BackgroundServer(backend) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30) as c:
                first = c.submit([get("E1").spec, get("E5").spec])
                assert c.last_done["executed"] == 2
                second = c.submit([get("E1").spec, get("E5").spec])
                assert c.last_done["executed"] == 0
                assert c.last_done["cached"] == 2
        assert all(r.cached for r in second)
        assert [r.comparable_payload() for r in first] == [
            r.comparable_payload() for r in second
        ]
