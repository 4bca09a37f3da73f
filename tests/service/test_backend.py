"""LocalBackend: the engine executor and its result cache as one call."""

from repro.engine.cache import ResultCache
from repro.engine.executor import run_spec
from repro.engine.registry import get
from repro.service.backend import LocalBackend


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

