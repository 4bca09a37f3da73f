"""CLI surface of the cluster subsystem: parsing, report printing and
the cache command."""

import contextlib
import json
import os
import socketserver
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cluster.federation import PoolBridge
from repro.engine.cli import build_parser, main
from repro.engine.cache import ResultCache
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.backend import LocalBackend
from repro.service.protocol import parse_address
from repro.service.server import BackgroundServer


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
        # a port outside 1-65535 is refused before any dial: the
        # resolver would wrap 70000 to 4464, and a worker that cannot
        # reach its address exits 0
        for address in ("127.0.0.1:0", "127.0.0.1:70000"):
            assert main(["worker", "--connect", address, "--retry", "0",
                         "--reconnects", "0"]) == 2
            err = capsys.readouterr().err
            assert "host:port" in err and address in err
        # a pool bridge's --pool is checked the same way
        assert main(["worker", "--connect", "10.0.0.1:7452",
                     "--pool", "just-a-host"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_pool_addresses_need_a_port_in_range(self):
        assert parse_address("pool.example:7452") == ("pool.example", 7452)
        for address in ("127.0.0.1:0", "127.0.0.1:70000", "just-a-host",
                        ":7452", "127.0.0.1:+80"):
            with pytest.raises(ValueError, match="HOST:PORT"):
                parse_address(address)
            # --pool: a bridge refuses it before it ever pings the pool
            with pytest.raises(ValueError, match="HOST:PORT"):
                PoolBridge("127.0.0.1", 7460, address)
        with pytest.raises(ValueError, match="HOST:PORT"):
            PoolBridge("127.0.0.1", 7460, ("127.0.0.1", 70000))

    @pytest.mark.parametrize("low,high", [(3, 2), (-1, 1)])
    def test_coordinator_rejects_bad_supervisor_bounds(self, low, high):
        # checked before the supervisor exists: a process run, since a
        # coordinator that passes the check would start serving
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "coordinator", "--port", "7999",
             "--no-journal", "--min-workers", str(low),
             "--max-workers", str(high)],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert proc.stderr.strip() == (
            f"error: --min-workers {low} must be in 0..--max-workers {high}"
        )

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


@contextlib.contextmanager
def cancelled_job_listener():
    """A listener whose every job was cancelled: a ``stream`` request
    gets a ``done`` frame with ``cancelled`` set and no results."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            for line in self.rfile:
                job = json.loads(line)["job"]
                self.wfile.write(protocol.encode_frame(protocol.make_done(
                    job, total=1, executed=0, cached=0, failed=0,
                    cancelled=True,
                )))

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


class TestReportPrinting:
    def test_submit_and_attach_keep_stdout_for_the_report(self, capsys):
        with BackgroundServer(LocalBackend()) as bg:
            port = str(bg.port)
            assert main(["submit", "--port", port, "--names", "E1"]) == 0
            submitted = capsys.readouterr()
            assert main(["submit", "--port", port, "--attach",
                         "job-1"]) == 0
            attached = capsys.readouterr()
        for captured in (submitted, attached):
            # as under `repro run`: progress and the blank line after it
            # on stderr, the report alone on stdout
            assert captured.out.startswith("scenario ")
            assert captured.err.endswith("s\n\n")
            assert "E1" in captured.err

    def test_attach_to_a_cancelled_job_says_so(self, capsys):
        with cancelled_job_listener() as port:
            assert main(["submit", "--port", str(port), "--attach",
                         "job-7", "--quiet"]) == 1
        assert "(job was cancelled before completing)" in (
            capsys.readouterr().out
        )


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
