"""LocalBackend: the engine executor and its result cache as one call."""

import pytest

from repro.engine.cache import ResultCache
from repro.engine.executor import run_spec
from repro.engine.registry import get
from repro.service.backend import LocalBackend


class TestLocalBackend:
    def test_results_match_direct_execution(self):
        specs = [get("E1").spec, get("E5").spec]
        results = LocalBackend().run(specs)
        assert [r.name for r in results] == ["E1", "E5"]
        for spec, result in zip(specs, results):
            assert (
                result.comparable_payload()
                == run_spec(spec).comparable_payload()
            )

    def test_progress_fires_per_result_in_completion_order(self):
        seen = []
        results = LocalBackend().run(
            [get("E1").spec], progress=seen.append
        )
        assert seen == results

    def test_cache_round_trip(self, tmp_path):
        backend = LocalBackend(cache=tmp_path / "cache")
        first = backend.run([get("E1").spec])
        second = backend.run([get("E1").spec])
        assert not first[0].cached and second[0].cached
        assert (
            first[0].comparable_payload() == second[0].comparable_payload()
        )

    def test_cache_accepts_a_prebuilt_instance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert LocalBackend(cache=cache).cache is cache


    @pytest.mark.parametrize("workers,timeout_s,runs_on", [
        (1, None, "serial"),
        (2, None, "process"),
        # a timeout needs a worker process to abandon
        (1, 60.0, "process"),
    ])
    def test_workers_and_timeout_pick_the_executor(
        self, workers, timeout_s, runs_on
    ):
        backend = LocalBackend(workers=workers, timeout_s=timeout_s)
        results = backend.run([get("E1").spec])
        assert [r.backend for r in results] == [runs_on]
        assert results[0].ok

    def test_a_batch_keeps_every_result_it_caches(self, tmp_path):
        # ``repro cache --prune`` is the one path that trims the cache
        backend = LocalBackend(cache=tmp_path / "cache")
        backend.run([get(name).spec for name in ("E1", "E5", "E7")])
        assert len(backend.cache.entries()) == 3

    def test_describe_names_the_workers_and_the_cache(self, tmp_path):
        assert LocalBackend(workers=3).describe() == (
            "local(workers=3, cache=off)"
        )
        backend = LocalBackend(cache=tmp_path / "cache")
        assert str(tmp_path / "cache") in backend.describe()
