"""Backend seam: LocalBackend wraps the executor+cache, RemoteBackend a peer."""

import pytest

from repro.engine.cache import ResultCache
from repro.engine.executor import run_spec
from repro.engine.registry import get
from repro.service.backend import LocalBackend, RemoteBackend
from repro.service.client import ServiceError
from repro.service.server import BackgroundServer, ScenarioServer
from repro.telemetry.metrics import METRICS


class TestLocalBackend:
    def test_results_match_direct_execution(self):
        specs = [get("E1").spec, get("E5").spec]
        results = LocalBackend(backend="serial").run(specs)
        assert [r.name for r in results] == ["E1", "E5"]
        for spec, result in zip(specs, results):
            assert (
                result.comparable_payload()
                == run_spec(spec).comparable_payload()
            )

    def test_progress_fires_per_result_in_completion_order(self):
        seen = []
        results = LocalBackend(backend="serial").run(
            [get("E1").spec], progress=seen.append
        )
        assert seen == results

    def test_cache_round_trip(self, tmp_path):
        backend = LocalBackend(backend="serial", cache=tmp_path / "cache")
        first = backend.run([get("E1").spec])
        second = backend.run([get("E1").spec])
        assert not first[0].cached and second[0].cached
        assert (
            first[0].comparable_payload() == second[0].comparable_payload()
        )

    def test_cache_accepts_a_prebuilt_instance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert LocalBackend(cache=cache).cache is cache


class TestRemoteBackend:
    def test_auth_token_reaches_a_guarded_peer(self):
        spec = get("E1").spec
        guarded = ScenarioServer(LocalBackend(backend="serial"), port=0,
                                 auth_token="s3cret")
        with BackgroundServer(server=guarded) as peer:
            with pytest.raises(ServiceError) as info:
                RemoteBackend(peer.host, peer.port).run([spec])
            assert info.value.code == "unauthorized"
            remote = RemoteBackend(peer.host, peer.port,
                                   auth_token="s3cret")
            dialled = METRICS.counter("service.connections").value
            results = remote.run([spec]) + remote.run([spec])
            remote.close()
        assert len(results) == 2 and all(r.ok for r in results)
        # both batches rode one connection
        assert METRICS.counter("service.connections").value == dialled + 1

    def test_remote_hop_matches_local_execution(self):
        spec = get("E1").spec
        with BackgroundServer(LocalBackend(backend="serial")) as peer:
            remote = RemoteBackend(peer.host, peer.port, connect_retries=5)
            seen = []
            results = remote.run([spec], progress=seen.append)
            remote.close()
        assert len(results) == 1 and seen == results
        assert (
            results[0].comparable_payload()
            == run_spec(spec).comparable_payload()
        )

    def test_timeouts_are_finite_by_default(self):
        # a hung listener must not hang the caller forever: both the
        # dial and each read carry finite bounds out of the box
        backend = RemoteBackend("127.0.0.1", 7341)
        assert backend.timeout == RemoteBackend.DEFAULT_READ_TIMEOUT_S
        assert (
            backend.connect_timeout
            == RemoteBackend.DEFAULT_CONNECT_TIMEOUT_S
        )

    def test_explicit_none_still_means_unbounded_reads(self):
        backend = RemoteBackend("127.0.0.1", 7341, timeout=None,
                                connect_timeout=None)
        assert backend.timeout is None
        assert backend.connect_timeout is None
