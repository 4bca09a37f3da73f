"""The observability CLI surface: query, status, cache --stats."""

import io
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine.cli import build_parser, main
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.telemetry.warehouse import ResultsWarehouse


def seed_warehouse(path, rows=3):
    with ResultsWarehouse(path) as wh:
        for i in range(rows):
            wh.record_result(
                ScenarioResult(
                    name="E10",
                    spec_hash=f"hash-{i}",
                    verdict={"ratio": 1.0 + i},
                    elapsed_s=0.1 * (i + 1),
                ),
                job_id="job-cli",
            )
        wh.flush()


class TestParsing:
    def test_query_defaults(self):
        args = build_parser().parse_args(["query"])
        assert args.db is None and args.format == "table"
        assert args.group_by == "scenario" and args.agg is None

    def test_run_and_serve_gained_warehouse(self):
        args = build_parser().parse_args(
            ["run", "--names", "E10", "--warehouse", "wh.sqlite"]
        )
        assert args.warehouse == "wh.sqlite"
        args = build_parser().parse_args(
            ["coordinator", "--warehouse", "wh.sqlite"]
        )
        assert args.warehouse == "wh.sqlite"

    def test_status_defaults(self):
        args = build_parser().parse_args(["status", "--port", "7452"])
        assert args.port == 7452 and not args.watch
        assert args.interval == 2.0


class TestQueryCommand:
    def test_missing_warehouse_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["query", "--db", str(tmp_path / "absent.sqlite")])
        assert rc == 2
        assert "no warehouse" in capsys.readouterr().err

    def test_rows_as_json_round_trip_types(self, tmp_path, capsys):
        db = tmp_path / "wh.sqlite"
        seed_warehouse(db)
        rc = main(["query", "--db", str(db), "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        assert rows[0]["params"] == {}
        assert rows[0]["cached"] is False
        assert rows[0]["headline_value"] == pytest.approx(1.0)
        assert rows[0]["job_id"] == "job-cli"

    def test_table_output_and_filters(self, tmp_path, capsys):
        db = tmp_path / "wh.sqlite"
        seed_warehouse(db)
        rc = main(["query", "--db", str(db), "--scenario", "E10",
                   "--limit", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "E10" in out and "job-cli" in out
        assert out.count("\n") >= 3  # header + rule + 2 rows

    def test_count_and_spec_hash_filter(self, tmp_path, capsys):
        db = tmp_path / "wh.sqlite"
        seed_warehouse(db)
        rc = main(["query", "--db", str(db), "--count",
                   "--spec-hash", "hash-1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_aggregate_json(self, tmp_path, capsys):
        db = tmp_path / "wh.sqlite"
        seed_warehouse(db)
        rc = main(["query", "--db", str(db), "--agg", "mean:wall_time",
                   "--agg", "count:", "--format", "json"])
        assert rc == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["scenario"] == "E10"
        assert row["count"] == 3
        assert row["mean_wall_time_s"] == pytest.approx(0.2)

    def test_bad_aggregate_is_a_usage_error(self, tmp_path, capsys):
        db = tmp_path / "wh.sqlite"
        seed_warehouse(db)
        rc = main(["query", "--db", str(db), "--agg", "median:wall_time"])
        assert rc == 2
        assert "median" in capsys.readouterr().err

    def test_stats_json(self, tmp_path, capsys):
        db = tmp_path / "wh.sqlite"
        seed_warehouse(db)
        rc = main(["query", "--db", str(db), "--stats"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["results"] == 3 and stats["jobs"] == 1

    def test_env_fallback_for_the_db_path(self, tmp_path, capsys,
                                          monkeypatch):
        db = tmp_path / "wh.sqlite"
        seed_warehouse(db)
        monkeypatch.setenv("REPRO_WAREHOUSE", str(db))
        rc = main(["query", "--count"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "3"


class TestCacheStats:
    def test_stats_flag_prints_json(self, tmp_path, capsys):
        rc = main(["cache", "--dir", str(tmp_path), "--stats"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0
        assert "code_version" in stats and "root" in stats


class TestRunWarehouse:
    def test_run_records_rows_and_keeps_stdout_clean(self, tmp_path,
                                                     capsys):
        from repro.engine.registry import scenario, unregister

        @scenario("_cli_wh", params={"n": 1})
        def _s(n=1):
            return {"rows": [{"n": n}], "verdict": {"value": 2.0}}

        db = tmp_path / "wh.sqlite"
        try:
            rc = main([
                "run", "--names", "_cli_wh", "--no-cache",
                "--warehouse", str(db),
            ])
        finally:
            unregister("_cli_wh")
        assert rc == 0
        captured = capsys.readouterr()
        # progress went to stderr; stdout is just the report
        assert "_cli_wh" in captured.err
        assert ": 1 executed," in captured.out
        with ResultsWarehouse(db) as wh:
            assert wh.count(scenario="_cli_wh") == 1


class TestServeWarehouse:
    def test_graceful_stop_commits_the_last_rows(self, tmp_path):
        # rows commit in ~50 ms groups: a shutdown right after the
        # last result must still leave its row in the warehouse
        db = tmp_path / "wh.sqlite"
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--no-cache", "--warehouse", str(db)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            banner = proc.stdout.readline()
            port = int(re.search(r"on 127\.0\.0\.1:(\d+)", banner)[1])
            with ServiceClient("127.0.0.1", port, timeout=30) as client:
                results = client.submit([ScenarioSpec("E1")])
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert [r.status for r in results] == ["ok"]
        with ResultsWarehouse(db) as wh:
            assert wh.count(scenario="E1") == 1


class TestStatusCommand:
    def test_status_prints_jobs_and_metrics(self, capsys):
        from repro.service.backend import LocalBackend
        from repro.service.server import BackgroundServer

        with BackgroundServer(LocalBackend()) as bg:
            rc = main(["status", "--port", str(bg.port),
                       "--timeout", "10"])
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {"jobs", "metrics", "cluster"}
        assert "counters" in snapshot["metrics"]

    def test_unreachable_listener_is_an_error(self, capsys):
        rc = main(["status", "--port", "1", "--timeout", "1"])
        assert rc == 2
        assert "service error" in capsys.readouterr().err


class _StatusStub:
    """A bare listener: answers every ``status`` frame with an empty
    snapshot and records the type of every frame it receives."""

    def __init__(self, port=0):
        self._sock = socket.create_server(("127.0.0.1", port))
        self._sock.settimeout(0.05)
        self.port = self._sock.getsockname()[1]
        self.frames = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            with conn, conn.makefile("rb") as reader:
                for line in reader:
                    frame = json.loads(line)
                    self.frames.append(frame["type"])
                    if frame["type"] == "status":
                        conn.sendall(protocol.encode_frame(
                            protocol.make_status_reply(
                                {}, metrics={"counters": {}},
                            )
                        ))

    def close(self):
        self._stop.set()
        self._thread.join(10)
        self._sock.close()


def _wait_for(condition, timeout_s=15.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _json_documents(text):
    """Every JSON document printed one after another in ``text``."""
    decoder, docs, pos = json.JSONDecoder(), [], 0
    text = text.strip()
    while pos < len(text):
        doc, end = decoder.raw_decode(text, pos)
        docs.append(doc)
        pos = end + 1  # the newline print() appended
    return docs


class TestStatusWatch:
    def test_polls_and_reattaches_after_a_listener_restart(
        self, monkeypatch
    ):
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        # ^C is the loop's only way out: deliver it through its sleep
        stop = threading.Event()
        real_sleep = time.sleep

        def sleep(seconds):
            if stop.is_set() and threading.current_thread() is watcher:
                raise KeyboardInterrupt
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", sleep)
        first = _StatusStub()
        second = None
        codes = []
        watcher = threading.Thread(
            target=lambda: codes.append(main([
                "status", "--port", str(first.port), "--watch",
                "--interval", "0.01", "--timeout", "5",
            ])),
            daemon=True,
        )
        watcher.start()
        try:
            _wait_for(lambda: len(first.frames) >= 2)
            first.close()
            _wait_for(lambda: "watch: lost" in err.getvalue())
            second = _StatusStub(first.port)
            _wait_for(lambda: "watch: reattached" in err.getvalue())
        finally:
            stop.set()
            watcher.join(30)
            first.close()
            if second is not None:
                second.close()
        assert codes == [0]
        snapshots = _json_documents(out.getvalue())
        assert len(snapshots) >= 3  # two before the restart, one after
        assert all(set(s) == {"jobs", "metrics", "cluster"}
                   for s in snapshots)
        assert set(first.frames) == set(second.frames) == {"status"}
        notices = err.getvalue()
        assert (notices.index("watch: lost")
                < notices.index("watch: reattached"))
