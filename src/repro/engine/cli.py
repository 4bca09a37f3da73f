"""``repro`` / ``python -m repro`` — run, list, report and serve scenarios.

Examples::

    repro list
    repro list --tags ablation,noc
    repro run --tags smoke --workers 2
    repro run --names E10 E14 --workers 4 --cache .repro_cache
    repro run --names DSE --sweep seed=1,2,3,4 --shard 0/2
    repro run --tags experiments --out report.json
    repro report report.json --full
    repro serve --port 7341 --workers 4
    repro submit --tags smoke --out report.json
    repro submit --names DSE --sweep seed=1,2,3,4
    repro submit --shutdown
    repro coordinator --port 7452 --journal .repro_cache/journal.jsonl
    repro coordinator --resume --journal .repro_cache/journal.jsonl
    repro worker --connect 127.0.0.1:7452 --cache .worker_cache
    repro submit --port 7452 --attach job-1 --out resumed.json
    repro cache --prune --max-entries 500
    repro cache --stats
    repro run --tags smoke --warehouse .repro_cache/warehouse.sqlite
    repro query --scenario E10 --since 2026-08-01 --agg mean:wall_time
    repro status --port 7452 --watch

(``repro`` is the installed console script; ``PYTHONPATH=src python -m
repro`` is the equivalent from a bare checkout.)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional

from repro.engine import registry
from repro.engine.results import Report, ScenarioResult


def _split_tags(value: Optional[str]) -> Optional[List[str]]:
    if not value:
        return None
    return [t.strip() for t in value.split(",") if t.strip()]


def _selected(args) -> list:
    tags = _split_tags(args.tags)
    names = args.names or None
    return registry.select(tags=tags, names=names)


def _parse_sweep(entries: Optional[List[str]]) -> dict:
    """``PARAM=V1,V2,...`` options into sweep axes (JSON-ish values)."""
    axes: dict = {}
    for entry in entries or ():
        if "=" not in entry:
            raise ValueError(
                f"--sweep needs PARAM=V1,V2,... (got {entry!r})"
            )
        name, _eq, values = entry.partition("=")
        parsed = []
        for raw in values.split(","):
            raw = raw.strip()
            if not raw:
                continue  # "p=" or "p=1,,2": empty is never a value
            try:
                parsed.append(json.loads(raw))
            except json.JSONDecodeError:
                parsed.append(raw)  # bare strings stay strings
        if not parsed:
            raise ValueError(f"--sweep axis {name!r} has no values")
        axes[name.strip()] = parsed
    return axes


def _sweep_and_shard(specs: list, args) -> list:
    """Apply ``--sweep`` expansion and ``--shard i/N`` selection."""
    from repro.service.shard import expand_specs, parse_shard, shard_specs

    axes = _parse_sweep(getattr(args, "sweep", None))
    if axes:
        specs = expand_specs(specs, axes)
    if getattr(args, "shard", None):
        index, total = parse_shard(args.shard)
        specs = shard_specs(specs, index, total)
    return specs


def _progress_printer(quiet: bool):
    def progress(result: ScenarioResult) -> None:
        if quiet:
            return
        origin = "cached" if result.cached else result.backend
        # per-result progress is a diagnostic: stderr, so stdout stays
        # clean for the report / JSON that scripts consume
        print(
            f"  {result.name:<14} {result.status:<7} "
            f"[{origin}] {result.elapsed_s:.2f}s",
            file=sys.stderr,
            flush=True,
        )

    return progress


#: default warehouse location shared by the recording and query sides.
DEFAULT_WAREHOUSE = ".repro_cache/warehouse.sqlite"


def _warehouse_path(args, *, require: bool = False) -> Optional[str]:
    """--warehouse/--db beats REPRO_WAREHOUSE; None means 'off'."""
    path = (
        getattr(args, "warehouse", None)
        or getattr(args, "db", None)
        or os.environ.get("REPRO_WAREHOUSE")
    )
    if path is None and require:
        return DEFAULT_WAREHOUSE
    return path


def cmd_list(args) -> int:
    from repro.analysis.report import format_table

    entries = _selected(args)
    if args.format == "json":
        print(
            json.dumps(
                [e.spec.to_dict() | {"doc": e.doc} for e in entries],
                indent=1,
            )
        )
        return 0
    rows = [
        {
            "scenario": e.name,
            "tags": ",".join(sorted(e.spec.tags)),
            "module": e.module.replace("repro.", ""),
            "doc": e.doc[:60],
        }
        for e in entries
    ]
    print(format_table(rows) if rows else "(no scenarios match)")
    print(f"\n{len(rows)} scenarios; tags: "
          + ", ".join(f"{t}({n})" for t, n in registry.all_tags().items()))
    return 0


@contextlib.contextmanager
def _local_backend(args):
    """The :class:`LocalBackend` behind ``repro run`` and ``repro serve``;
    its warehouse is closed on the way out, which commits the rows of
    the last commit window."""
    from repro.service.backend import LocalBackend

    backend = LocalBackend(
        workers=args.workers,
        timeout_s=args.timeout,
        cache=None if args.no_cache else args.cache,
        warehouse=_warehouse_path(args),
    )
    try:
        yield backend
    finally:
        if backend.warehouse is not None:
            backend.warehouse.close()


def _print_report(report: Report, args, cancelled: bool = False) -> int:
    """Print a report on stdout (progress and its separator went to
    stderr), save it under ``--out``; returns the exit code."""
    if not args.quiet:
        print(file=sys.stderr)
    print(report.render())
    if cancelled:
        print("(job was cancelled before completing)")
    if args.out:
        path = report.save(args.out)
        print(f"\nwrote {path}")
    return 1 if report.failed or cancelled else 0


def cmd_run(args) -> int:
    entries = _selected(args)
    if not entries:
        print("no scenarios selected", file=sys.stderr)
        return 2
    try:
        specs = _sweep_and_shard([e.spec for e in entries], args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("shard selects zero specs", file=sys.stderr)
        return 2
    with _local_backend(args) as backend:
        results = backend.run(specs, progress=_progress_printer(args.quiet))
    cache = backend.cache
    return _print_report(
        Report(results=results,
               code_version=cache.code_version if cache is not None else ""),
        args,
    )


def _auth_token(args) -> Optional[str]:
    """--auth-token beats REPRO_AUTH_TOKEN beats an open listener."""
    return args.auth_token or os.environ.get("REPRO_AUTH_TOKEN") or None


def _client(args):
    """The ``ServiceClient`` of ``repro submit`` and ``repro status``."""
    from repro.service.client import ServiceClient

    return ServiceClient(
        args.host, args.port, retries=args.retry, timeout=args.timeout,
        auth_token=_auth_token(args),
    )


def _coordinator_settings(args) -> dict:
    """What ``repro coordinator`` and ``repro federate`` both set."""
    return dict(
        host=args.host,
        port=args.port,
        journal_path=None if args.no_journal else args.journal,
        resume=args.resume,
        auth_token=_auth_token(args),
        max_pending=args.max_pending,
        warehouse=_warehouse_path(args),
        compact_every=args.compact_every,
    )


def _run_listener(server, what: str, describe: str) -> int:
    import asyncio

    from repro.service.protocol import PROTOCOL_VERSION

    async def _serve() -> None:
        await server.start()
        guarded = "token-guarded" if server.auth_token else "open"
        print(
            f"{what} on {server.host}:{server.port} "
            f"(protocol v{PROTOCOL_VERSION}, {guarded}, {describe})",
            flush=True,
        )
        await server.wait_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print(f"{what} stopped")
    return 0


def cmd_serve(args) -> int:
    from repro.service.server import ScenarioServer

    with _local_backend(args) as backend:
        server = ScenarioServer(
            backend,
            host=args.host,
            port=args.port,
            auth_token=_auth_token(args),
            max_pending=args.max_pending,
        )
        return _run_listener(
            server, "serving scenarios", f"backend {backend.describe()}"
        )


def cmd_coordinator(args) -> int:
    from repro.cluster.coordinator import ClusterCoordinator

    supervisor = None
    if args.max_workers > 0:
        from repro.cluster.supervisor import (
            WorkerSupervisor, process_spawner,
        )

        if not 0 <= args.min_workers <= args.max_workers:
            print(
                f"error: --min-workers {args.min_workers} must be in "
                f"0..--max-workers {args.max_workers}",
                file=sys.stderr,
            )
            return 2
        # the children connect back to the listener we are about to
        # start; port 0 (pick-a-free-port) cannot be supervised this
        # way because the spawner needs the address up front
        if args.port == 0:
            print(
                "error: --max-workers needs a fixed --port "
                "(supervised workers dial back in)",
                file=sys.stderr,
            )
            return 2
        supervisor = WorkerSupervisor(
            process_spawner(
                f"{args.host}:{args.port}",
                cache_dir=args.worker_cache_dir,
                auth_token=_auth_token(args),
            ),
            min_workers=args.min_workers,
            max_workers=args.max_workers,
        )
    server = ClusterCoordinator(
        lease_timeout_s=args.lease_timeout,
        supervisor=supervisor,
        **_coordinator_settings(args),
    )
    journal = "journal off" if args.no_journal else f"journal {args.journal}"
    supervised = (
        f", supervising {args.min_workers}-{args.max_workers} workers"
        if supervisor is not None else ""
    )
    return _run_listener(
        server, "coordinating scenarios",
        f"{journal}, lease timeout {args.lease_timeout:g}s{supervised}",
    )


def cmd_federate(args) -> int:
    from repro.cluster.federation import FederatedCoordinator
    from repro.service.protocol import parse_address

    try:
        pools = [parse_address(entry) for entry in args.pool]
    except ValueError as exc:
        print(f"error: --pool: {exc}", file=sys.stderr)
        return 2
    server = FederatedCoordinator(
        pools=pools,
        chunk_specs=args.chunk_specs,
        **_coordinator_settings(args),
    )
    journal = "journal off" if args.no_journal else f"journal {args.journal}"
    return _run_listener(
        server, "federating scenarios",
        f"{journal}, {len(pools)} pools, {args.chunk_specs} specs a chunk",
    )


def cmd_worker(args) -> int:
    import signal

    from repro.cluster.chaos import ChaosError, ChaosMonkey
    from repro.cluster.federation import PoolBridge
    from repro.cluster.worker import ClusterWorker, WorkerError
    from repro.service.protocol import parse_address

    try:
        host, port = parse_address(args.connect)
    except ValueError:
        print(f"error: --connect needs host:port (port 1-65535), "
              f"got {args.connect!r}", file=sys.stderr)
        return 2
    try:
        chaos = (ChaosMonkey.parse(args.chaos) if args.chaos
                 else ChaosMonkey.from_env())
        settings = dict(
            name=args.name,
            capacity=args.capacity,
            auth_token=_auth_token(args),
            connect_retries=args.retry,
            reconnects=args.reconnects,
            quiet=args.quiet,
            chaos=chaos,
        )
        if args.pool:
            # a pool bridge is a worker whose leases run on a whole pool
            worker = PoolBridge(host, port, args.pool, **settings)
        else:
            worker = ClusterWorker(
                host, port, cache=None if args.no_cache else args.cache,
                **settings,
            )
    except (ChaosError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # first SIGTERM/SIGINT drains (finish the in-flight spec, release
    # unstarted leases); a second one stops hard
    def _on_signal(signum, _frame):
        if worker._drain.is_set() or worker._stop.is_set():
            worker.stop()
        else:
            worker.drain()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _on_signal)
        except (ValueError, OSError):
            pass  # non-main thread or exotic platform: skip

    armed = f", chaos [{chaos.describe()}]" if chaos is not None else ""
    bridged = f", bridging pool {worker.pool}" if worker.pool else ""
    print(
        f"worker {worker.name} connecting to {host}:{port} "
        f"(capacity {worker.capacity}{bridged}{armed})",
        flush=True,
    )
    try:
        executed = worker.run()
    except KeyboardInterrupt:
        worker.stop()
        executed = worker.executed
    except WorkerError as exc:
        print(f"coordinator refused this worker: {exc}", file=sys.stderr)
        return 2
    drained = (f" (drained, released {worker.released} leases)"
               if worker.released else "")
    print(f"worker {worker.name} stopped after {executed} specs{drained}")
    return 0


def cmd_cache(args) -> int:
    from repro.engine.cache import ResultCache

    cache = ResultCache(args.dir)
    try:
        stats = cache.stats()
        if args.stats:
            print(json.dumps(stats, indent=1, sort_keys=True))
            return 0
        if args.clear:
            removed = cache.clear()
            print(f"cleared {removed} entries from {args.dir}")
            return 0
        if args.prune:
            if args.max_entries is None:
                print("error: --prune needs --max-entries N", file=sys.stderr)
                return 2
            removed = cache.prune(args.max_entries)
            stats = cache.stats()
            print(
                f"pruned {removed} entries (oldest-written first, across "
                f"every code version); {stats['entries']} remain in "
                f"{args.dir}"
            )
            return 0
        print(
            f"{stats['entries']} entries ({stats['bytes']} bytes) in "
            f"{stats['root']}: {stats['current_version']} under current "
            f"code version {stats['code_version']}, {stats['stale']} stale"
        )
        return 0
    finally:
        cache.close()


def cmd_status(args) -> int:
    """One status snapshot, or one per ``--interval`` under ``--watch``.

    Every snapshot is one ``status`` frame on a fresh connection.
    Under ``--watch`` a dropped listener is not fatal: reconnects are
    paced with jittered exponential backoff (so a restarting
    coordinator isn't stampeded) and one-line stderr notices mark the
    loss and the reattachment.
    """
    import time

    from repro.service.backoff import Backoff
    from repro.service.client import ServiceError

    def snapshot() -> dict:
        with _client(args) as client:
            return client.status_full(args.job)

    def show(snap: dict) -> None:
        print(json.dumps(snap, indent=1, sort_keys=True), flush=True)

    if not args.watch:
        try:
            show(snapshot())
        except ServiceError as exc:
            print(f"service error: {exc}", file=sys.stderr)
            return 2
        return 0
    backoff = Backoff(base_s=max(0.5, args.interval / 2), max_s=30.0)
    disconnected = False
    try:
        while True:
            try:
                snap = snapshot()
            except ServiceError as exc:
                if not disconnected:
                    print(
                        f"watch: lost {args.host}:{args.port} ({exc}); "
                        "retrying with backoff",
                        file=sys.stderr, flush=True,
                    )
                    disconnected = True
                time.sleep(backoff.next_delay())
                continue
            if disconnected:
                print(f"watch: reattached to {args.host}:{args.port}",
                      file=sys.stderr, flush=True)
                disconnected = False
                backoff.reset()
            show(snap)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _query_filters(args) -> dict:
    filters: dict = {}
    for key in ("scenario", "status", "job", "spec_hash", "source",
                "code_version", "since", "until"):
        value = getattr(args, key, None)
        if value is not None:
            filters[key] = value
    if args.cached is not None:
        filters["cached"] = args.cached == "yes"
    return filters


def _print_rows(rows: list, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=1))
        return
    from repro.analysis.report import format_table

    print(format_table(rows))


def _query_display_row(row: dict) -> dict:
    """Trim a warehouse row to the columns a terminal table can hold."""
    from datetime import datetime, timezone

    when = datetime.fromtimestamp(
        row["recorded_at"], tz=timezone.utc
    ).strftime("%Y-%m-%dT%H:%M:%SZ")
    return {
        "recorded_at": when,
        "scenario": row["scenario"],
        "status": row["status"],
        "wall_s": f"{row['wall_time_s']:.3f}",
        "cached": "yes" if row["cached"] else "no",
        "headline": (
            f"{row['headline_name']}={row['headline_value']:.4g}"
            if row["headline_name"] and row["headline_value"] is not None
            else ""
        ),
        "job": row["job_id"],
        "spec": row["spec_hash"][:12],
        "source": row["source"],
    }


def cmd_query(args) -> int:
    from repro.telemetry.warehouse import ResultsWarehouse, WarehouseError

    db = _warehouse_path(args, require=True)
    if not os.path.exists(db):
        print(
            f"error: no warehouse at {db} (record one with "
            "repro run/serve/coordinator --warehouse PATH)",
            file=sys.stderr,
        )
        return 2
    try:
        with ResultsWarehouse(db) as warehouse:
            if args.retain_days is not None or args.retain_rows is not None:
                summary = warehouse.retain(
                    days=args.retain_days, rows=args.retain_rows,
                    vacuum=not args.no_vacuum,
                )
                print(json.dumps(summary, indent=1, sort_keys=True))
                return 0
            if args.stats:
                print(json.dumps(warehouse.stats(), indent=1,
                                 sort_keys=True))
                return 0
            filters = _query_filters(args)
            if args.agg:
                rows = warehouse.aggregate(
                    args.agg, group_by=args.group_by, **filters
                )
                _print_rows(rows, args.format)
                return 0
            if args.count:
                print(warehouse.count(**filters))
                return 0
            rows = warehouse.query(limit=args.limit, **filters)
            if args.format == "json":
                _print_rows(rows, "json")
            else:
                _print_rows(
                    [_query_display_row(r) for r in rows], "table"
                )
            return 0
    except WarehouseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_submit(args) -> int:
    from repro.service.client import ServiceError

    selection = bool(args.tags or args.names)
    if not selection and not args.shutdown and not args.attach:
        print("no scenarios selected (use --tags/--names, --attach JOB "
              "to re-stream a job, or --shutdown to stop the server)",
              file=sys.stderr)
        return 2
    try:
        with _client(args) as client:
            rc = 0
            if selection:
                rc = _submit_selection(client, args)
            if args.attach:
                rc = max(rc, _attach_job(client, args))
            if args.shutdown:
                client.shutdown()
                print(f"sent shutdown to {args.host}:{args.port}")
            return rc
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _print_job_report(client, results: list, args) -> int:
    """:func:`_print_report` for the job ``client`` just streamed."""
    done = client.last_done or {}
    return _print_report(Report(results=results), args,
                         cancelled=bool(done.get("cancelled")))


def _attach_job(client, args) -> int:
    """Re-attach to a running/finished job and render its report."""
    results = []
    progress = _progress_printer(args.quiet)
    for result in client.stream_job(args.attach):
        results.append(result)
        progress(result)
    return _print_job_report(client, results, args)


def _submit_selection(client, args) -> int:
    from repro.service.shard import parse_shard

    entries = _selected(args)
    specs = [e.spec for e in entries]
    axes = _parse_sweep(args.sweep) or None
    shard = list(parse_shard(args.shard)) if args.shard else None
    results = client.submit(
        specs,
        sweep=axes,
        shard=shard,
        progress=_progress_printer(args.quiet),
    )
    return _print_job_report(client, results, args)


def cmd_report(args) -> int:
    from repro.analysis.report import render_experiment

    report = Report.load(args.path)
    print(report.render())
    if args.full:
        for result in report:
            print()
            print(
                render_experiment(
                    result.name,
                    {
                        "claim": result.claim,
                        "rows": result.rows,
                        "verdict": result.verdict,
                    },
                )
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Scenario engine for the DAC'03 SoC reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_selection(p):
        p.add_argument(
            "--tags",
            help="comma-separated tag filter (any-match), e.g. "
            "'ablation,noc'",
        )
        p.add_argument(
            "--names", nargs="*", help="explicit scenario names, e.g. E1 A3"
        )

    p_list = sub.add_parser("list", help="list registered scenarios")
    add_selection(p_list)
    p_list.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_list.set_defaults(fn=cmd_list)

    def add_sweep(p):
        p.add_argument(
            "--sweep", action="append", metavar="PARAM=V1,V2,...",
            help="fan each selected spec out over these param values "
            "(repeatable; cross product across axes)",
        )
        p.add_argument(
            "--shard", metavar="I/N",
            help="keep only round-robin shard I of N over the "
            "(expanded) spec list, e.g. --shard 0/4",
        )

    def add_warehouse(p):
        p.add_argument(
            "--warehouse", default=None, metavar="PATH",
            help="record every result as a row in this sqlite results "
            "warehouse (falls back to REPRO_WAREHOUSE; off by default)",
        )

    def add_local_backend(p, workers: int, workers_help: str):
        """The options :func:`_local_backend` reads."""
        p.add_argument(
            "--workers", type=int, default=workers, help=workers_help
        )
        p.add_argument(
            "--timeout", type=float, default=None,
            help="per-job timeout (s)",
        )
        p.add_argument(
            "--cache", default=".repro_cache",
            help="result-cache directory (default .repro_cache)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="bypass the result cache",
        )

    p_run = sub.add_parser("run", help="execute selected scenarios")
    add_selection(p_run)
    add_sweep(p_run)
    add_warehouse(p_run)
    add_local_backend(
        p_run, 1, "worker processes (>1 enables the process backend)"
    )
    p_run.add_argument("--out", help="write the aggregated report JSON here")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    def add_listen_address(p, port: int):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument(
            "--port", type=int, default=port,
            help=f"listen port (0 picks a free one; default {port})",
        )

    def add_listener_hardening(p):
        p.add_argument(
            "--auth-token", default=None,
            help="shared-secret listener auth (falls back to the "
            "REPRO_AUTH_TOKEN env var); unauthenticated frames get a "
            "structured 'unauthorized' error",
        )
        p.add_argument(
            "--max-pending", type=int, default=None,
            help="backpressure: cap on accepted-but-incomplete specs; "
            "over-limit submits get a structured 'busy' rejection",
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the scenario service (specs in, streamed results out)",
    )
    add_listen_address(p_serve, 7341)
    add_local_backend(
        p_serve, 2, "worker processes behind the local backend"
    )
    add_listener_hardening(p_serve)
    add_warehouse(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    p_coord = sub.add_parser(
        "coordinator",
        help="run the cluster coordinator (clients submit, workers lease)",
    )
    add_listen_address(p_coord, 7452)
    p_coord.add_argument(
        "--journal", default=".repro_cache/coordinator_journal.jsonl",
        help="append-only JSONL job journal "
        "(default .repro_cache/coordinator_journal.jsonl)",
    )
    p_coord.add_argument(
        "--no-journal", action="store_true",
        help="run without durability (crash loses in-flight jobs)",
    )
    p_coord.add_argument(
        "--resume", action="store_true",
        help="replay the journal on startup and finish half-done jobs "
        "without re-executing completed specs",
    )
    p_coord.add_argument(
        "--lease-timeout", type=float, default=30.0,
        help="seconds without a heartbeat before a worker's leases are "
        "requeued (default 30)",
    )
    p_coord.add_argument(
        "--compact-every", type=int, default=1000,
        help="compact the journal into a snapshot once its tail holds "
        "N records, or the last snapshot's spec and result count if "
        "that is more (0 disables; default 1000)",
    )
    p_coord.add_argument(
        "--min-workers", type=int, default=0,
        help="supervised local workers to keep alive (with "
        "--max-workers > 0 the coordinator spawns and heals its own "
        "worker processes)",
    )
    p_coord.add_argument(
        "--max-workers", type=int, default=0,
        help="autoscale ceiling for supervised workers (0 disables "
        "supervision; default 0)",
    )
    p_coord.add_argument(
        "--worker-cache-dir", default=".repro_cache/workers",
        help="result-cache root for supervised workers (one subdir "
        "per slot)",
    )
    add_listener_hardening(p_coord)
    add_warehouse(p_coord)
    p_coord.set_defaults(fn=cmd_coordinator)

    p_fed = sub.add_parser(
        "federate",
        help="run a federation front: a coordinator whose workers are "
        "bridges to peer coordinator pools",
    )
    add_listen_address(p_fed, 7460)
    p_fed.add_argument(
        "--pool", action="append", default=[], metavar="HOST:PORT",
        help="a peer coordinator pool to federate over (repeatable; "
        "more can be attached later via 'repro worker --pool')",
    )
    p_fed.add_argument(
        "--journal", default=".repro_cache/federation_journal.jsonl",
        help="append-only JSONL job journal for the front "
        "(default .repro_cache/federation_journal.jsonl)",
    )
    p_fed.add_argument(
        "--no-journal", action="store_true",
        help="run without durability (front crash loses in-flight jobs)",
    )
    p_fed.add_argument(
        "--resume", action="store_true",
        help="replay the front journal on startup and finish half-done "
        "jobs without re-executing specs any pool completed",
    )
    p_fed.add_argument(
        "--compact-every", type=int, default=1000,
        help="compact the front journal once its tail holds N records, "
        "or the last snapshot's spec and result count if that is more "
        "(0 disables; default 1000)",
    )
    p_fed.add_argument(
        "--chunk-specs", type=int, default=4,
        help="leases each pool bridge holds and submits to its pool "
        "at once (default 4)",
    )
    add_listener_hardening(p_fed)
    add_warehouse(p_fed)
    p_fed.set_defaults(fn=cmd_federate)

    p_worker = sub.add_parser(
        "worker",
        help="run a cluster worker against a coordinator",
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator to register with",
    )
    p_worker.add_argument(
        "--name", default=None,
        help="worker name for logs/journal (default hostname-pid)",
    )
    p_worker.add_argument(
        "--capacity", type=int, default=1,
        help="outstanding leases to prefetch (execution stays serial; "
        "with --pool, the leases submitted to the pool at once)",
    )
    p_worker.add_argument(
        "--pool", default=None, metavar="HOST:PORT",
        help="bridge a whole coordinator pool instead of executing "
        "locally: leases are forwarded there (attaches a pool to a "
        "federation front at runtime; SIGTERM drains it)",
    )
    p_worker.add_argument(
        "--cache", default=".repro_cache",
        help="this worker's result-cache directory",
    )
    p_worker.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )
    p_worker.add_argument(
        "--auth-token", default=None,
        help="shared secret for a guarded coordinator "
        "(falls back to REPRO_AUTH_TOKEN)",
    )
    p_worker.add_argument(
        "--retry", type=int, default=25,
        help="connection attempts beyond the first (0.2s apart)",
    )
    p_worker.add_argument(
        "--reconnects", type=int, default=5,
        help="reconnect attempts after losing the coordinator",
    )
    p_worker.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault-injection schedule, e.g. "
        "'seed=42,kill-worker@3,drop-conn@5' (falls back to the "
        "REPRO_CHAOS env var)",
    )
    p_worker.add_argument("--quiet", action="store_true")
    p_worker.set_defaults(fn=cmd_worker)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or prune the on-disk result cache",
    )
    p_cache.add_argument(
        "--dir", default=".repro_cache",
        help="cache directory (default .repro_cache)",
    )
    p_cache.add_argument(
        "--prune", action="store_true",
        help="apply the --max-entries cap (oldest-written first, "
        "across every code version)",
    )
    p_cache.add_argument(
        "--max-entries", type=int, default=None,
        help="entries to keep when pruning",
    )
    p_cache.add_argument(
        "--clear", action="store_true",
        help="drop every entry across all code versions",
    )
    p_cache.add_argument(
        "--stats", action="store_true",
        help="print the cache statistics as JSON and exit",
    )
    p_cache.set_defaults(fn=cmd_cache)

    p_submit = sub.add_parser(
        "submit",
        help="submit scenarios to a running service and stream results",
    )
    add_selection(p_submit)
    add_sweep(p_submit)
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=7341)
    p_submit.add_argument(
        "--retry", type=int, default=0,
        help="connection attempts beyond the first (0.2s apart), for "
        "racing a freshly started server",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=None,
        help="socket timeout (s); default: wait indefinitely",
    )
    p_submit.add_argument(
        "--shutdown", action="store_true",
        help="send a shutdown to the server after the submission "
        "(or alone, with no selection)",
    )
    p_submit.add_argument(
        "--attach", metavar="JOB", default=None,
        help="re-attach to an existing job id (e.g. after a "
        "coordinator --resume) and stream its merged results",
    )
    p_submit.add_argument(
        "--auth-token", default=None,
        help="shared secret for a guarded listener "
        "(falls back to REPRO_AUTH_TOKEN)",
    )
    p_submit.add_argument("--out", help="write the streamed report JSON here")
    p_submit.add_argument("--quiet", action="store_true")
    p_submit.set_defaults(fn=cmd_submit)

    p_report = sub.add_parser(
        "report", help="render a saved report JSON"
    )
    p_report.add_argument("path")
    p_report.add_argument(
        "--full", action="store_true",
        help="include every scenario's table, not just the summary",
    )
    p_report.set_defaults(fn=cmd_report)

    p_status = sub.add_parser(
        "status",
        help="print a listener's status frame: jobs, live metrics, "
        "cluster pool state (JSON)",
    )
    p_status.add_argument("--host", default="127.0.0.1")
    p_status.add_argument(
        "--port", type=int, default=7341,
        help="listener port (7341 service, 7452 coordinator default)",
    )
    p_status.add_argument(
        "--job", default=None, help="restrict the jobs block to one job id"
    )
    p_status.add_argument(
        "--watch", action="store_true",
        help="poll a fresh snapshot every --interval seconds until ^C, "
        "reconnecting with backoff if the listener drops",
    )
    p_status.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between --watch updates (default 2)",
    )
    p_status.add_argument(
        "--retry", type=int, default=0,
        help="connection attempts beyond the first (0.2s apart)",
    )
    p_status.add_argument(
        "--timeout", type=float, default=10.0,
        help="socket timeout (s; default 10)",
    )
    p_status.add_argument(
        "--auth-token", default=None,
        help="shared secret for a guarded listener "
        "(falls back to REPRO_AUTH_TOKEN)",
    )
    p_status.set_defaults(fn=cmd_status)

    p_query = sub.add_parser(
        "query",
        help="query the sqlite results warehouse (filters, aggregates, "
        "retention)",
    )
    p_query.add_argument(
        "--db", default=None, metavar="PATH",
        help="warehouse path (falls back to REPRO_WAREHOUSE, then "
        f"{DEFAULT_WAREHOUSE})",
    )
    p_query.add_argument("--scenario", default=None,
                         help="filter: scenario name, e.g. E10")
    p_query.add_argument("--status", default=None,
                         help="filter: ok | error | timeout")
    p_query.add_argument("--job", default=None, help="filter: job id")
    p_query.add_argument("--spec-hash", default=None,
                         help="filter: content hash of the spec")
    p_query.add_argument("--source", default=None,
                         help="filter: local | coordinator")
    p_query.add_argument("--code-version", default=None,
                         help="filter: engine code-version digest")
    p_query.add_argument(
        "--cached", choices=("yes", "no"), default=None,
        help="filter: cache replays only (yes) or fresh runs only (no)",
    )
    p_query.add_argument(
        "--since", default=None,
        help="filter: rows recorded at/after this ISO date or epoch",
    )
    p_query.add_argument(
        "--until", default=None,
        help="filter: rows recorded at/before this ISO date or epoch",
    )
    p_query.add_argument(
        "--limit", type=int, default=None, help="cap on returned rows"
    )
    p_query.add_argument(
        "--agg", action="append", metavar="FN:FIELD",
        help="grouped aggregate instead of rows, e.g. mean:wall_time "
        "count: max:headline_value (repeatable)",
    )
    p_query.add_argument(
        "--group-by", default="scenario",
        help="grouping column for --agg (default scenario)",
    )
    p_query.add_argument(
        "--count", action="store_true",
        help="print just the matching row count",
    )
    p_query.add_argument(
        "--stats", action="store_true",
        help="print warehouse-wide statistics as JSON",
    )
    p_query.add_argument(
        "--format", choices=("table", "json"), default="table"
    )
    p_query.add_argument(
        "--retain-days", type=float, default=None, metavar="DAYS",
        help="delete rows older than DAYS (compaction; prints a "
        "summary and exits)",
    )
    p_query.add_argument(
        "--retain-rows", type=int, default=None, metavar="N",
        help="keep only the newest N result rows (combinable with "
        "--retain-days)",
    )
    p_query.add_argument(
        "--no-vacuum", action="store_true",
        help="skip the VACUUM after --retain-days/--retain-rows",
    )
    p_query.set_defaults(fn=cmd_query)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.telemetry.events import configure_from_env

    configure_from_env()  # REPRO_EVENTS=path.jsonl traces every event
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro list | head`
        return 0
    except (KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
