"""The observability CLI surface: query, status, cache --stats."""

import json

import pytest

from repro.engine.cli import build_parser, main
from repro.engine.results import ScenarioResult
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


class TestStatusCommand:
    def test_status_prints_jobs_and_metrics(self, capsys):
        from repro.service.backend import LocalBackend
        from repro.service.server import BackgroundServer

        with BackgroundServer(LocalBackend(backend="serial")) as bg:
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


class _PreWatchServer:
    """A protocol-v1 listener that predates the ``watch`` frame.

    Answers ``watch`` with ``unknown-type`` (exactly what an old
    server's validator does) and serves ``status`` polls, so the CLI's
    fallback path can be exercised against the real wire behavior.
    """

    def __init__(self):
        import socket
        import threading

        self._sock = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self._sock.getsockname()
        self.status_polls = 0
        self.watch_refusals = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        import json as json_mod

        from repro.service import protocol

        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            with conn:
                reader = conn.makefile("rb")
                for line in reader:
                    frame = json_mod.loads(line)
                    if frame["type"] == "watch":
                        self.watch_refusals += 1
                        conn.sendall(protocol.encode_frame(
                            protocol.make_error(
                                "unknown-type",
                                "no request type 'watch'",
                            )
                        ))
                        break  # old servers drop nothing else here
                    if frame["type"] == "status":
                        self.status_polls += 1
                        conn.sendall(protocol.encode_frame(
                            protocol.make_status_reply(
                                {}, metrics={"counters": {}},
                            )
                        ))

    def close(self):
        self._stop.set()
        self._sock.close()


class TestStatusWatchFallback:
    def test_watch_falls_back_to_polling_on_unknown_type(self, capsys):
        import threading
        import time as time_mod

        stub = _PreWatchServer()
        try:
            thread = threading.Thread(
                target=main,
                args=(["status", "--host", stub.host,
                       "--port", str(stub.port), "--watch",
                       "--interval", "0.01", "--timeout", "5"],),
                daemon=True,
            )
            thread.start()
            deadline = time_mod.monotonic() + 15
            while (stub.status_polls < 2
                   and time_mod.monotonic() < deadline):
                time_mod.sleep(0.01)
        finally:
            stub.close()
        # the watch frame was refused once, then the CLI switched to
        # the classic polling loop for good
        assert stub.watch_refusals == 1
        assert stub.status_polls >= 2
        captured = capsys.readouterr()
        assert "falling back to polling" in captured.err
        assert '"jobs"' in captured.out

    def test_forced_poll_never_sends_a_watch_frame(self):
        import threading
        import time as time_mod

        stub = _PreWatchServer()
        try:
            thread = threading.Thread(
                target=main,
                args=(["status", "--host", stub.host,
                       "--port", str(stub.port), "--watch", "--poll",
                       "--interval", "0.01", "--timeout", "5"],),
                daemon=True,
            )
            thread.start()
            deadline = time_mod.monotonic() + 15
            while (stub.status_polls < 2
                   and time_mod.monotonic() < deadline):
                time_mod.sleep(0.01)
        finally:
            stub.close()
        assert stub.watch_refusals == 0
        assert stub.status_polls >= 2


class TestQueryServe:
    def test_serve_answers_over_http_with_cli_parity(self, tmp_path):
        import threading
        import urllib.request

        from repro.telemetry.httpd import WarehouseHTTP

        db = tmp_path / "wh.sqlite"
        seed_warehouse(db)
        with ResultsWarehouse(str(db)) as warehouse:
            endpoint = WarehouseHTTP(warehouse, port=0).start()
            try:
                with urllib.request.urlopen(
                    endpoint.url + "/count?scenario=E10", timeout=30
                ) as reply:
                    body = json.loads(reply.read())
                assert body["count"] == warehouse.count(scenario="E10")
            finally:
                endpoint.shutdown()
        assert threading.active_count() >= 1  # endpoint died cleanly

    def test_serve_flag_refuses_an_unbindable_port(self, tmp_path,
                                                   capsys):
        import socket

        db = tmp_path / "wh.sqlite"
        seed_warehouse(db)
        blocker = socket.create_server(("127.0.0.1", 0))
        try:
            port = blocker.getsockname()[1]
            rc = main(["query", "--db", str(db), "--serve",
                       "--http-port", str(port)])
        finally:
            blocker.close()
        assert rc == 2
        assert "cannot bind" in capsys.readouterr().err
