"""Result cache: hit/miss behavior, code-version keying, concurrency."""

import multiprocessing
import os
import signal
import sqlite3
import sys
import threading

import pytest

from repro.engine.cache import ResultCache, compute_code_version
from repro.engine.executor import execute, run_spec
from repro.engine.registry import get
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec


def _result_for(spec, **overrides):
    fields = dict(
        name=spec.name,
        spec_hash=spec.content_hash,
        params=spec.params_dict(),
        verdict={"won": True, "metric": 4.2},
        rows=[{"a": 1}],
        elapsed_s=0.5,
    )
    fields.update(overrides)
    return ScenarioResult(**fields)


class TestCacheStore:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        spec = ScenarioSpec("x", {"alpha": 1})
        assert cache.get(spec) is None
        cache.put(_result_for(spec))
        hit = cache.get(spec)
        assert hit is not None
        assert hit.cached and hit.backend == "cache"
        assert hit.verdict == {"won": True, "metric": 4.2}
        assert hit.rows == [{"a": 1}]

    def test_different_params_miss(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        spec = ScenarioSpec("x", {"alpha": 1})
        cache.put(_result_for(spec))
        assert cache.get(spec.with_params(alpha=2)) is None
        assert cache.get(spec.with_seed(9)) is None

    def test_code_version_invalidates(self, tmp_path):
        spec = ScenarioSpec("x", {"alpha": 1})
        old = ResultCache(tmp_path, code_version="v1")
        old.put(_result_for(spec))
        new = ResultCache(tmp_path, code_version="v2")
        assert old.get(spec) is not None
        assert new.get(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        spec = ScenarioSpec("x")
        cache.put(_result_for(spec))
        with sqlite3.connect(cache.path) as conn:
            conn.execute("UPDATE results SET payload = '{not json'")
        assert cache.get(spec) is None
        assert cache.entries() == []

    def test_entries_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        for alpha in (1, 2, 3):
            spec = ScenarioSpec("x", {"alpha": alpha})
            cache.put(_result_for(spec))
        hashes = [result.spec_hash for result in cache.entries()]
        assert len(hashes) == 3 and hashes == sorted(hashes)
        assert cache.clear() == 3
        assert cache.entries() == []

    def test_reads_of_a_missing_root_create_nothing(self, tmp_path):
        root = tmp_path / "absent"
        cache = ResultCache(root, code_version="v1")
        spec = ScenarioSpec("x")
        assert cache.get(spec) is None
        assert spec not in cache
        assert cache.entries() == []
        assert cache.stats()["entries"] == 0
        assert cache.prune(0) == 0
        assert cache.clear() == 0
        assert not root.exists()


class TestCodeVersion:
    def test_tracks_source_contents(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        v1 = compute_code_version(pkg)
        (pkg / "a.py").write_text("x = 2\n")
        v2 = compute_code_version(pkg)
        assert v1 != v2
        (pkg / "a.py").write_text("x = 1\n")
        assert compute_code_version(pkg) == v1

    def test_repro_package_version_is_memoized(self):
        assert compute_code_version() == compute_code_version()


class TestExecutorCacheIntegration:
    def test_second_run_executes_zero_and_matches(self, tmp_path):
        specs = [get("E1").spec, get("E4").spec]
        cache = ResultCache(tmp_path)
        # at workers=2 the process backend forks while this process
        # holds the store's connection (opened by the first pass)
        for workers in (1, 2):
            cache.clear()
            first = execute(specs, cache=cache, workers=workers)
            assert len(first.executed) == 2 and not first.from_cache
            second = execute(specs, cache=cache, workers=workers)
            assert not second.executed
            assert len(second.from_cache) == 2
            for a, b in zip(first, second):
                assert a.comparable_payload() == b.comparable_payload()
        cache.close()

    def test_failed_results_are_not_cached(self, tmp_path):
        from repro.engine.registry import scenario, unregister

        @scenario("_boom")
        def _boom():
            raise RuntimeError("no")

        try:
            spec = ScenarioSpec("_boom")
            cache = ResultCache(tmp_path)
            report = execute([spec], cache=cache)
            assert report.results[0].status == "error"
            assert "RuntimeError" in report.results[0].error
            assert cache.get(spec) is None
        finally:
            unregister("_boom")

    def test_error_result_survives_run_spec(self):
        from repro.engine.registry import scenario, unregister

        @scenario("_boom2")
        def _boom2():
            raise ValueError("bad input")

        try:
            result = run_spec(ScenarioSpec("_boom2"))
            assert not result.ok
            assert result.reproduced is None
            assert "bad input" in result.error
        finally:
            unregister("_boom2")


class TestPrune:
    def _fill(self, tmp_path, count, version="vvvvvvvvvvvv"):
        """``count`` entries; recency is the write order."""
        cache = ResultCache(tmp_path / "cache", code_version=version)
        specs = [ScenarioSpec("_p", {"i": i}) for i in range(count)]
        for spec in specs:
            cache.put(_result_for(spec))
        return cache, specs

    def test_prune_keeps_the_newest_entries(self, tmp_path):
        cache, specs = self._fill(tmp_path, 6)
        removed = cache.prune(2)
        assert removed == 4
        # the two most recently written entries survive
        assert cache.get(specs[-1]) is not None
        assert cache.get(specs[-2]) is not None
        assert all(cache.get(s) is None for s in specs[:-2])

    def test_prune_spans_code_versions(self, tmp_path):
        old = ResultCache(tmp_path / "cache", code_version="oldversion01")
        spec = ScenarioSpec("_old", {"i": 99})
        old.put(_result_for(spec))  # written first: the oldest
        cache, specs = self._fill(tmp_path, 3)
        assert cache.prune(3) == 1  # the stale-version entry goes first
        assert old.get(spec) is None
        assert cache.stats()["stale"] == 0
        assert all(cache.get(s) is not None for s in specs)

    def test_rewrite_refreshes_recency(self, tmp_path):
        cache, specs = self._fill(tmp_path, 3)
        cache.put(_result_for(specs[0]))  # now the newest
        assert cache.prune(1) == 2
        assert cache.get(specs[0]) is not None

    def test_prune_within_budget_is_a_noop(self, tmp_path):
        cache, specs = self._fill(tmp_path, 3)
        assert cache.prune(10) == 0
        assert cache.prune(3) == 0
        assert all(cache.get(s) is not None for s in specs)

    def test_negative_cap_is_a_noop(self, tmp_path):
        cache, specs = self._fill(tmp_path, 2)
        assert cache.prune(-1) == 0
        assert all(cache.get(s) is not None for s in specs)

    def test_stats_split_current_and_stale(self, tmp_path):
        cache, _specs = self._fill(tmp_path, 3)
        other = ResultCache(tmp_path / "cache", code_version="oldversion01")
        other.put(_result_for(ScenarioSpec("_old")))
        stats = cache.stats()
        assert stats["entries"] == 4
        assert stats["current_version"] == 3
        assert stats["stale"] == 1
        assert stats["bytes"] > 0


def _put_and_die(root, result):
    ResultCache(root, code_version="v1").put(result)
    os.kill(os.getpid(), signal.SIGKILL)


class TestConcurrency:
    def test_threads_putting_one_hash_share_a_root(self, tmp_path):
        """Four caches on one root, each on its own thread, store the
        same spec 300 times; no put may fail."""
        spec = ScenarioSpec("x", {"alpha": 1})
        result = _result_for(spec)
        caches = [ResultCache(tmp_path, code_version="v1") for _ in range(4)]
        errors = []

        def hammer(cache):
            for _ in range(300):
                try:
                    cache.put(result)
                except Exception as exc:  # reported by the assertion below
                    errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(cache,))
                for cache in caches
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert caches[0].get(spec) is not None
        for cache in caches:
            cache.close()

    def test_put_survives_a_killed_process(self, tmp_path):
        spec = ScenarioSpec("x", {"alpha": 2})
        child = multiprocessing.get_context("spawn").Process(
            target=_put_and_die, args=(tmp_path, _result_for(spec))
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL
        assert ResultCache(tmp_path, code_version="v1").get(spec) is not None


class _Abort(Exception):
    pass


class TestInterruptedExecute:
    @pytest.mark.parametrize("backend,workers",
                             [("serial", 1), ("process", 2)])
    def test_results_finished_before_an_abort_stay_cached(
        self, tmp_path, backend, workers
    ):
        """A ``progress`` that raises (a cancelled job, a Ctrl-C) keeps
        every result it saw: each lands in the cache before
        ``progress`` does."""
        specs = [get(name).spec for name in ("E1", "E2", "E3")]
        cache = ResultCache(tmp_path)
        seen = []

        def progress(result):
            seen.append(result.name)
            if len(seen) == 2:
                raise _Abort

        try:
            with pytest.raises(_Abort):
                execute(specs, cache=cache, backend=backend,
                        workers=workers, progress=progress)
            cached = [spec.name for spec in specs if spec in cache]
            assert cached == seen == ["E1", "E2"]
        finally:
            cache.close()

    @pytest.mark.parametrize("backend,workers",
                             [("serial", 1), ("process", 2)])
    def test_progress_sees_each_result_already_cached(
        self, tmp_path, backend, workers
    ):
        specs = [get(name).spec for name in ("E1", "E5")]
        cache = ResultCache(tmp_path)
        cached_when_seen = []
        try:
            execute(specs, cache=cache, backend=backend, workers=workers,
                    progress=lambda r: cached_when_seen.append(
                        get(r.name).spec in cache))
            assert cached_when_seen == [True, True]
        finally:
            cache.close()

    def test_a_rerun_after_an_abort_runs_only_the_rest(self, tmp_path):
        specs = [get(name).spec for name in ("E1", "E2", "E3")]
        cache = ResultCache(tmp_path)
        seen = []

        def abort_on_second(result):
            seen.append(result.name)
            if len(seen) == 2:
                raise _Abort

        try:
            with pytest.raises(_Abort):
                execute(specs, cache=cache, progress=abort_on_second)
            report = execute(specs, cache=cache)
            assert [(r.name, r.cached) for r in report.results] == [
                ("E1", True), ("E2", True), ("E3", False)
            ]
        finally:
            cache.close()
