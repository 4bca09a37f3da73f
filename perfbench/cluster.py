"""The cluster workloads: ``sweep``, ``interactive`` and ``sweep-federated``.

Every round starts a fresh topology of real ``repro coordinator`` /
``repro worker`` / ``repro federate`` processes on loopback in its own
directory, drives it from this process (the load generator, at most
two connections), checks every streamed result against an in-process
``run_spec`` of the same spec computed before the timed window, reads
``/proc`` and one ``status`` frame per listener just before shutdown,
and then stops every process.
"""

from __future__ import annotations

import os
import random
import re
import signal
import sqlite3
import threading
import time
from pathlib import Path

import checks
import layers
import procstat
import tracer
from report import Outcome, calm_rounds, latency, mid
from repro.engine import registry
from repro.engine.executor import run_spec
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError

HOST = "127.0.0.1"

#: the sub-millisecond scenarios: compute is negligible next to the
#: service, lease, journal and warehouse work each spec costs.
CHEAP = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E12",
         "E13", "E16", "E17")

ROUNDS = 3
#: sweep specs per round per second of --seconds.  At 20 s a round is
#: 4000 specs, about 8000 journal records: eight compactions at the
#: default --compact-every 1000.
SPECS_PER_SECOND = 200
#: interactive: (scenario, seed) pairs the Zipf draws from, and its skew.
PAIRS_PER_SCENARIO = 4
ZIPF_S = 1.0
CLIENTS = 2

#: this process's recorder, once the load generator installed the
#: wrappers for a traced round; patches are process-wide, so one at most
_client_recorder = None


# -- inputs -------------------------------------------------------------------

def _spec(name: str, seed: int):
    base = registry.get(name).spec
    return ScenarioSpec(name, base.params_dict(), seed=seed, tags=base.tags)


def sweep_specs(seed: int, count: int) -> list:
    """``count`` distinct cheap specs with seeded spec seeds."""
    rng = random.Random(f"sweep-{seed}")
    return [_spec(rng.choice(CHEAP), spec_seed)
            for spec_seed in rng.sample(range(1, 2**31), count)]


def interactive_pairs(seed: int) -> list:
    """The (scenario, seed) specs the interactive clients draw from,
    in Zipf rank order."""
    rng = random.Random(f"interactive-{seed}")
    pairs = [_spec(name, rng.randrange(1, 2**31))
             for name in CHEAP for _ in range(PAIRS_PER_SCENARIO)]
    rng.shuffle(pairs)
    return pairs


def interactive_stream(pairs: list, seed: int, client: int):
    """Endless seeded Zipf draws over ``pairs`` for one client."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pairs))]
    cumulative = [sum(weights[: i + 1]) for i in range(len(weights))]
    draw = random.Random(f"interactive-{seed}-client-{client}")
    while True:
        yield draw.choices(pairs, cum_weights=cumulative)[0]


def reference_digests(specs) -> dict:
    """spec hash -> output digest of an in-process ``run_spec``."""
    unique = {s.content_hash: s for s in specs}
    return {h: checks.output_digest(run_spec(s).to_dict())
            for h, s in unique.items()}


# -- topology -----------------------------------------------------------------

class Topology:
    """A coordinator with two workers, or a front over two one-worker
    pools, each process logging into ``workdir``."""

    def __init__(self, ctx, federated: bool, workdir: Path,
                 trace_dir: Path | None):
        self.ctx = ctx
        self.federated = federated
        self.workdir = workdir
        self.trace_dir = trace_dir
        #: role -> (process, port or None)
        self.procs: dict = {}
        self.setup_s = 0.0

    def _spawn(self, role: str, args: list):
        if self.trace_dir is not None:
            argv = [str(self.ctx.bench / "launch.py"), role,
                    str(self.trace_dir), "--", *args]
        else:
            argv = ["-m", "repro", *args]
        with open(self.workdir / f"{role}.log", "w") as log:
            proc = self.ctx.start(argv, stdout=log, stderr=log)
        self.procs[role] = (proc, None)
        return proc

    def _listener(self, role: str, command: str, extra=()):
        self._spawn(role, [
            command, "--port", "0",
            "--journal", str(self.workdir / f"{role}.journal.jsonl"),
            "--warehouse", str(self.workdir / f"{role}.sqlite"), *extra,
        ])

    def _port(self, role: str, deadline: float) -> int:
        proc, _ = self.procs[role]
        log = self.workdir / f"{role}.log"
        while time.monotonic() < deadline and proc.poll() is None:
            found = re.search(r"on 127\.0\.0\.1:(\d+)", log.read_text())
            if found:
                port = int(found.group(1))
                self.procs[role] = (proc, port)
                return port
            time.sleep(0.005)
        raise RuntimeError(f"{role} did not start: {log.read_text()[-400:]}")

    def _worker(self, role: str, port: int) -> None:
        self._spawn(role, [
            "worker", "--connect", f"{HOST}:{port}", "--capacity", "1",
            "--cache", str(self.workdir / f"{role}-cache"), "--quiet",
        ])

    def start(self) -> None:
        launched = time.monotonic()
        deadline = launched + 60.0
        pools = ["pool-a", "pool-b"] if self.federated else ["coordinator"]
        for pool in pools:
            self._listener(pool, "coordinator")
        ports = [self._port(pool, deadline) for pool in pools]
        if self.federated:
            for index, port in enumerate(ports):
                self._worker(f"worker-{index}", port)
            self._listener("front", "federate", [
                arg for port in ports for arg in ("--pool", f"{HOST}:{port}")
            ])
            self._port("front", deadline)
        else:
            for index in range(2):
                self._worker(f"worker-{index}", ports[0])
        need = 1 if self.federated else 2
        for port in ports:
            with ServiceClient(HOST, port, timeout=10) as client:
                while len(client.status_full()["cluster"]["workers"]) < need:
                    self._check_deadline(deadline)
                    time.sleep(0.005)
        if self.federated:
            with ServiceClient(HOST, self.head_port, timeout=10) as client:
                while not _pools_ready(client.status_full()["cluster"]):
                    self._check_deadline(deadline)
                    time.sleep(0.005)
        self.setup_s = time.monotonic() - launched

    def _check_deadline(self, deadline: float) -> None:
        if time.monotonic() > deadline:
            raise RuntimeError("topology not ready within 60 s")
        for role, (proc, _port) in self.procs.items():
            if proc.poll() is not None:
                raise RuntimeError(f"{role} exited with {proc.returncode}")

    @property
    def head(self) -> str:
        """The listener clients talk to."""
        return "front" if self.federated else "coordinator"

    @property
    def head_port(self) -> int:
        return self.procs[self.head][1]

    def pids(self) -> dict:
        return {role: proc.pid for role, (proc, _p) in self.procs.items()}

    def listeners(self) -> dict:
        """role -> port, the front first."""
        found = {r: p for r, (_proc, p) in self.procs.items() if p}
        return dict(sorted(found.items(), key=lambda kv: kv[0] != "front"))

    def stop(self) -> list:
        """Stop the workers, then shut the listeners down; returns the
        roles that exited non-zero or had to be killed.

        Idle workers hold no leases and nothing unwritten, so untraced
        workers are killed outright; a graceful drain (SIGTERM) waits
        out the heartbeat thread's sleep, two seconds per round, and is
        used only where the worker must exit normally to write spans.
        """
        trouble = []
        workers = [r for r in self.procs if r.startswith("worker")]
        graceful = self.trace_dir is not None
        for role in workers:
            proc = self.procs[role][0]
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM if graceful
                                 else signal.SIGKILL)
        for role in workers:
            code = self.ctx.finish(self.procs[role][0], 20)
            if code != (0 if graceful else -signal.SIGKILL):
                trouble.append(role)
        for role, port in self.listeners().items():
            proc = self.procs[role][0]
            try:
                with ServiceClient(HOST, port, timeout=10) as client:
                    client.shutdown()
            except (ServiceError, OSError):
                proc.terminate()
            if self.ctx.finish(proc, 30) != 0:
                trouble.append(role)
        for role, (proc, _port) in self.procs.items():
            if proc.poll() is None:
                self.ctx.finish(proc, 1)
                trouble.append(role)
        return trouble


def _pools_ready(cluster: dict) -> bool:
    pools = cluster.get("pools") or {}
    return len(pools) == 2 and all(
        p["breaker"]["state"] == "closed" for p in pools.values()
    )


# -- load ---------------------------------------------------------------------

def _request(client, specs) -> dict:
    """One streamed submit; stamps (CLOCK_MONOTONIC ns) at each frame."""
    record = {"specs": specs, "results": [], "refused": None}
    payload = [s.to_dict() for s in specs]
    record["t_send"] = time.monotonic_ns()
    try:
        client.send(protocol.make_submit(payload, stream=True))
        reply = client.recv()
        record["t_ack"] = time.monotonic_ns()
        if reply.get("type") != "ack":
            record["refused"] = f"{reply.get('code')}: {reply.get('message')}"
        while record["refused"] is None:
            message = client.recv()
            kind = message.get("type")
            if kind == "result":
                result = ScenarioResult.from_dict(message["result"])
                record["results"].append((time.monotonic_ns(), result))
            elif kind == "done":
                break
            elif kind == "error":
                record["refused"] = f"{message.get('code')}"
    except ServiceError as exc:
        record["refused"] = f"{exc.code}: {exc}"
    record["t_done"] = time.monotonic_ns()
    record.setdefault("t_ack", record["t_done"])
    return record


def sweep_load(port: int, specs, _seconds: float) -> list:
    with ServiceClient(HOST, port, timeout=120) as client:
        return [_request(client, specs)]


def interactive_load(port: int, streams, seconds: float) -> list:
    """Closed loop: each client sends its next one-spec submit only
    after the previous one's ``done``, until ``seconds`` have passed."""
    records = [[] for _ in streams]
    deadline = time.monotonic() + seconds

    def loop(index: int) -> None:
        with ServiceClient(HOST, port, timeout=60) as client:
            while time.monotonic() < deadline:
                records[index].append(
                    _request(client, [next(streams[index])])
                )

    threads = [threading.Thread(target=loop, args=(i,))
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for per_client in records for r in per_client]


# -- one round ----------------------------------------------------------------

def _file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _warehouse_rows(path: Path) -> int:
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
    finally:
        conn.close()


def run_round(ctx, name: str, index: int, traced: bool, load, argument,
              seconds: float, reference: dict) -> dict:
    """Fresh topology, timed load, accounting, shutdown, checks."""
    global _client_recorder
    federated = name == "sweep-federated"
    workdir = ctx.new_dir(f"{name}-{index}")
    trace_dir = ctx.new_dir(f"{name}-{index}-trace") if traced else None
    if traced and _client_recorder is None:
        _client_recorder = tracer.install(tracer.Recorder())
        _client_recorder.active = False
    topology = Topology(ctx, federated, workdir, trace_dir)
    try:
        topology.start()
        pids = topology.pids()
        before = {role: procstat.cpu_seconds(pid) for role, pid in pids.items()}
        client_before = procstat.own_cpu_seconds()
        host_before = procstat.host_ticks()
        if traced:
            _client_recorder.active = True
        records = load(topology.head_port, argument, seconds)
        if traced:
            _client_recorder.active = False
        steal = procstat.steal_share(host_before)
        client_cpu = procstat.own_cpu_seconds() - client_before
        cpu = {role: procstat.cpu_seconds(pid) - before[role]
               for role, pid in pids.items()}
        peak = {role: procstat.peak_rss_mib(pid) for role, pid in pids.items()}
        peak["load generator"] = procstat.peak_rss_mib(os.getpid())
        status = {}
        for role, port in topology.listeners().items():
            with ServiceClient(HOST, port, timeout=10) as client:
                status[role] = client.status_full()
    finally:
        trouble = topology.stop()
    dumps = []
    if traced:
        _client_recorder.dump(trace_dir / f"client-{os.getpid()}.json",
                              "client")
        _client_recorder.spans.clear()
        dumps = layers.load_dumps(trace_dir)

    submitted = sum(len(r["specs"]) for r in records)
    failures = []
    results = []
    for record in records:
        got = [result for _t, result in record["results"]]
        results.extend(got)
        reason = (f"submit refused: {record['refused']}"
                  if record["refused"] else "result missing")
        failures.extend([reason] * (len(record["specs"]) - len(got)))
    mismatched = checks.parity_failures(
        [r.to_dict() for r in results], reference
    )
    failures.extend(mismatched)
    rows = _warehouse_rows(workdir / f"{topology.head}.sqlite")
    if rows != submitted:
        failures.append(
            f"{topology.head} warehouse holds {rows} rows for "
            f"{submitted} specs"
        )
    first = min(r["t_send"] for r in records)
    last = max(
        max([t for t, _r in r["results"]] + [r["t_done"]]) for r in records
    )
    wall = (last - first) / 1e9
    if len(records) == 1:  # one submit: each spec waits from the send
        latencies = [(t - records[0]["t_send"]) / 1e6
                     for t, _r in records[0]["results"]]
    else:
        latencies = [(r["t_done"] - r["t_send"]) / 1e6 for r in records]
    return {
        "traced": traced,
        "steal": steal,
        "setup_s": topology.setup_s,
        "submitted": submitted,
        "failures": failures,
        "trouble": trouble,
        "rate": (len(results) - len(mismatched)) / wall if wall else 0.0,
        "wall_s": wall,
        "latencies_ms": latencies,
        "cpu_s": cpu,
        "client_cpu_s": client_cpu,
        "peak_mib": peak[topology.head],
        "peaks": peak,
        "status": status,
        "cached": sum(1 for r in results if r.cached),
        "results": len(results),
        "rows": rows,
        "records": records,
        "dumps": dumps,
        "sizes": {
            role: (_file_size(workdir / f"{role}.journal.jsonl"),
                   _file_size(workdir / f"{role}.journal.jsonl.snapshot"))
            for role in status
        },
    }


# -- metrics ------------------------------------------------------------------

def _counter(status: dict, name: str) -> float:
    return (status.get("metrics") or {}).get("counters", {}).get(name, 0)


def _outside_in(round_: dict, federated: bool) -> dict:
    """The per-layer metrics read without tracing, for one round."""
    specs = round_["submitted"] or 1
    cpu = round_["cpu_s"]
    status = round_["status"]
    pools = [r for r in status if r != "front"]
    lease = [
        (status[r].get("metrics") or {}).get("histograms", {})
        .get("cluster.lease_latency_s", {}) for r in pools
    ]
    lease_count = sum(h.get("count", 0) for h in lease)
    front = status.get("front", {})
    pool_cpu = sum(v for r, v in cpu.items() if r in pools)
    return {
        "engine.cache_hit_ratio": round_["cached"] / (round_["results"] or 1),
        "service.client_cpu_ms_per_spec":
            round_["client_cpu_s"] * 1000.0 / specs,
        "cluster.coordinator_cpu_ms_per_spec": pool_cpu * 1000.0 / specs,
        "cluster.worker_cpu_ms_per_spec": sum(
            v for r, v in cpu.items() if r.startswith("worker")
        ) * 1000.0 / specs,
        "cluster.lease_round_trips_per_spec": sum(
            _counter(status[r], "cluster.leases_granted") for r in pools
        ) / specs,
        "cluster.lease_latency_ms": (
            sum(h.get("total", 0.0) for h in lease) * 1000.0 / lease_count
            if lease_count else 0.0
        ),
        "cluster.steals": sum(status[r]["cluster"]["steals"] for r in pools),
        "cluster.requeued": sum(
            status[r]["cluster"]["requeued"] for r in pools
        ),
        "cluster.stale_results": sum(
            _counter(status[r], "cluster.stale_results") for r in pools
        ),
        "cluster.quarantined": sum(
            status[r]["cluster"]["quarantined"] for r in status
        ),
        "federation.front_cpu_ms_per_spec":
            cpu.get("front", 0.0) * 1000.0 / specs,
        "federation.pool_cpu_ms_per_spec":
            pool_cpu * 1000.0 / specs if federated else 0.0,
        "federation.rehomed": _counter(front, "federation.rehomed"),
        "federation.breaker_opens": _counter(front, "federation.breaker_opens"),
        "telemetry.warehouse_rows_per_spec": round_["rows"] / specs,
    }


def _joined(round_: dict) -> dict:
    """Service latencies joined across processes by spec hash."""
    runs = layers.keyed_spans(round_["dumps"], "service.backend_run",
                              ("worker",))
    busy = sum(end - start for spans in runs.values()
               for start, end in spans) / 1e9
    workers = sum(1 for r in round_["cpu_s"] if r.startswith("worker"))
    acks, waits, returns = [], [], []
    for record in round_["records"]:
        acks.append((record["t_ack"] - record["t_send"]) / 1e6)
        for received, result in record["results"]:
            spans = runs.get(result.spec_hash) or []
            # this request's worker run: the first one after the send
            match = next((s for s in spans
                          if record["t_send"] <= s[0] <= received), None)
            if match is None:
                continue
            spans.remove(match)
            waits.append((match[0] - record["t_send"]) / 1e6)
            returns.append((received - match[1]) / 1e6)
    return {
        "service.submit_ack_ms": mid(acks),
        "service.dispatch_wait_ms": mid(waits),
        "service.result_return_ms": mid(returns),
        "cluster.worker_busy_ratio":
            busy / (workers * round_["wall_s"]) if round_["wall_s"] else 0.0,
    }


def run(ctx, name: str, seed: int, seconds: int, trace: bool) -> Outcome:
    if name == "interactive":
        pairs = interactive_pairs(seed)
        reference = reference_digests(pairs)

        def one(index: int, traced: bool = False) -> dict:
            streams = [interactive_stream(pairs, seed, c)
                       for c in range(CLIENTS)]
            return run_round(ctx, name, index, traced, interactive_load,
                             streams, seconds / ROUNDS, reference)
    else:
        specs = sweep_specs(seed, SPECS_PER_SECOND * seconds)
        reference = reference_digests(specs)

        def one(index: int, traced: bool = False) -> dict:
            return run_round(ctx, name, index, traced, sweep_load, specs,
                             seconds, reference)

    if trace:
        plain = [one(0)]
        rounds = plain + [one(1, traced=True)]
    else:
        plain, rounds = calm_rounds(one, ROUNDS)

    outcome = Outcome(attempted=sum(r["submitted"] for r in rounds))
    for r in rounds:
        outcome.fail(r["failures"])
        if r["trouble"]:
            outcome.fail([f"did not stop cleanly: {', '.join(r['trouble'])}"])
    latencies = [r["latencies_ms"] for r in plain]
    outcome.end_to_end = {
        "specs_per_s": (mid([r["rate"] for r in plain]), len(plain)),
        "latency_p50_ms": latency(latencies, 50),
        "latency_p90_ms": latency(latencies, 90),
        "cpu_ms_per_spec": (mid([
            sum(r["cpu_s"].values()) * 1000.0 / r["submitted"] for r in plain
        ]), len(plain)),
        "peak_rss_mb": (mid([r["peak_mib"] for r in plain]), len(plain)),
        "setup_s": (mid([r["setup_s"] for r in plain]), len(plain)),
    }
    federated = name == "sweep-federated"
    outside = [_outside_in(r, federated) for r in plain]
    outcome.per_layer = {
        key: mid([o[key] for o in outside]) for key in outside[0]
    }
    for r in rounds:
        sizes = ", ".join(
            f"{role} journal {j} B, snapshot {s} B"
            for role, (j, s) in r["sizes"].items()
        )
        use = ("traced" if r["traced"] else
               "timed" if any(r is p for p in plain) else "disturbed, unused")
        outcome.notes.append(
            f"round ({use}): {r['submitted']} specs in {r['wall_s']:.2f} s "
            f"({r['rate']:.1f}/s, host steal {100 * r['steal']:.1f}%), "
            f"warehouse rows {r['rows']}, cached {r['cached']}; {sizes}; "
            "cpu " + ", ".join(
                f"{role} {v:.2f} s" for role, v in sorted(r["cpu_s"].items())
            ) + f", load generator {r['client_cpu_s']:.2f} s; VmHWM "
            + ", ".join(f"{role} {v:.1f} MiB"
                        for role, v in sorted(r["peaks"].items()))
        )
    traced = [r for r in rounds if r["traced"]]
    if traced:
        r = traced[0]
        spans = layers.totals(r["dumps"])
        outcome.per_layer.update(layers.from_spans(spans, r["submitted"]))
        outcome.per_layer.update(_joined(r))
        outcome.per_layer["trace.specs_per_s"] = r["rate"]
        outcome.per_layer["trace.overhead_ratio"] = (
            outcome.end_to_end["specs_per_s"][0] / r["rate"]
            if r["rate"] else 0.0
        )
    return outcome
