"""CLI surface of the cluster subsystem: parsing and the cache command."""

import pytest

from repro.engine.cli import build_parser, main
from repro.engine.cache import ResultCache
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec


class TestParsing:
    def test_coordinator_defaults(self):
        args = build_parser().parse_args(["coordinator"])
        assert args.port == 7452
        assert args.journal.endswith("coordinator_journal.jsonl")
        assert not args.resume and not args.no_journal
        assert args.lease_timeout == 30.0
        assert args.auth_token is None and args.max_pending is None

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])
        args = build_parser().parse_args(
            ["worker", "--connect", "10.0.0.1:7452", "--capacity", "3"]
        )
        assert args.connect == "10.0.0.1:7452" and args.capacity == 3

    def test_worker_rejects_a_portless_connect(self, capsys):
        assert main(["worker", "--connect", "just-a-host"]) == 2
        assert "host:port" in capsys.readouterr().err
        # a pool bridge's --pool is checked the same way
        assert main(["worker", "--connect", "10.0.0.1:7452",
                     "--pool", "just-a-host"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_serve_gained_hardening_flags(self):
        args = build_parser().parse_args(
            ["serve", "--auth-token", "t", "--max-pending", "64"]
        )
        assert args.auth_token == "t" and args.max_pending == 64

    def test_submit_gained_attach(self):
        args = build_parser().parse_args(
            ["submit", "--attach", "job-3", "--auth-token", "t"]
        )
        assert args.attach == "job-3"


class TestCacheCommand:
    def _seed(self, tmp_path, count):
        """``count`` entries; recency is the write order."""
        cache = ResultCache(tmp_path, code_version="testversion1")
        for i in range(count):
            spec = ScenarioSpec("_c", {"i": i})
            cache.put(ScenarioResult(
                name="_c", spec_hash=spec.content_hash,
            ))
        return cache

    def test_stats_render(self, tmp_path, capsys):
        self._seed(tmp_path, 3)
        assert main(["cache", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 entries" in out

    def test_prune_applies_the_lru_cap(self, tmp_path, capsys):
        cache = self._seed(tmp_path, 5)
        assert main([
            "cache", "--dir", str(tmp_path), "--prune",
            "--max-entries", "2",
        ]) == 0
        assert "pruned 3 entries" in capsys.readouterr().out
        assert cache.stats()["entries"] == 2
        newest = {ScenarioSpec("_c", {"i": i}).content_hash for i in (3, 4)}
        assert {r.spec_hash for r in cache.entries()} == newest

    def test_prune_without_a_cap_is_a_usage_error(self, tmp_path, capsys):
        assert main(["cache", "--dir", str(tmp_path), "--prune"]) == 2
        assert "--max-entries" in capsys.readouterr().err

    def test_clear_empties_every_version(self, tmp_path, capsys):
        cache = self._seed(tmp_path, 4)
        assert main(["cache", "--dir", str(tmp_path), "--clear"]) == 0
        assert "cleared 4 entries" in capsys.readouterr().out
        assert cache.stats()["entries"] == 0
