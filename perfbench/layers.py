"""Per-layer metrics: names, units, and their derivation from spans.

Layers are named after the program's modules.  Times are summed over
every traced process of a run.  A function's time is its inclusive
duration (a call nested in a call of the same span name is counted
once); ``sim.run_s``, ``mapping.anneal_s`` and ``cluster.journal_append_s``
are self time, the span's duration minus its child spans (the work the
simulator kernel, the annealer loop and the journal's own appends do).
Metrics a workload does not exercise read 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping

#: (name, unit, better) in report order.
PER_LAYER = [
    ("sim.run_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("dsoc.calls", "count", "lower"),
    ("dsoc.marshal_s", "s", "lower"),
    ("apps.prefix_table_s", "s", "lower"),
    ("apps.trie_insert_s", "s", "lower"),
    ("apps.trie_lookup_s", "s", "lower"),
    ("apps.cam_build_s", "s", "lower"),
    ("noc.flow_evaluate_s", "s", "lower"),
    ("noc.routing_builds", "count", "lower"),
    ("noc.routing_build_s", "s", "lower"),
    ("mapping.anneal_s", "s", "lower"),
    ("mapping.propose_calls", "count", "lower"),
    ("mapping.propose_s", "s", "lower"),
    ("mapping.evaluate_s", "s", "lower"),
    ("scenario.E14_s", "s", "lower"),
    ("scenario.E18_s", "s", "lower"),
    ("scenario.A3_s", "s", "lower"),
    ("scenario.A4_s", "s", "lower"),
    ("scenario.E11_s", "s", "lower"),
    ("scenario.E15_s", "s", "lower"),
    ("engine.run_spec_s", "s", "lower"),
    ("engine.spec_hash_calls_per_spec", "count", "lower"),
    ("engine.spec_hash_s", "s", "lower"),
    ("engine.result_encode_s", "s", "lower"),
    ("engine.result_decode_s", "s", "lower"),
    ("engine.cache_get_s", "s", "lower"),
    ("engine.cache_put_s", "s", "lower"),
    ("engine.cache_hit_ratio", "ratio", "higher"),
    ("service.frame_encode_s", "s", "lower"),
    ("service.frame_decode_s", "s", "lower"),
    ("service.frames_per_spec", "count", "lower"),
    ("service.wire_bytes_per_spec", "bytes", "lower"),
    ("service.submit_ack_ms", "ms", "lower"),
    ("service.dispatch_wait_ms", "ms", "lower"),
    ("service.result_return_ms", "ms", "lower"),
    ("service.client_cpu_ms_per_spec", "ms", "lower"),
    ("cluster.coordinator_cpu_ms_per_spec", "ms", "lower"),
    ("cluster.worker_cpu_ms_per_spec", "ms", "lower"),
    ("cluster.worker_busy_ratio", "ratio", "higher"),
    ("cluster.lease_round_trips_per_spec", "count", "lower"),
    ("cluster.lease_latency_ms", "ms", "lower"),
    ("cluster.journal_records_per_spec", "count", "lower"),
    ("cluster.journal_append_s", "s", "lower"),
    ("cluster.journal_compactions", "count", "lower"),
    ("cluster.journal_compact_s", "s", "lower"),
    ("cluster.snapshot_bytes_per_spec", "bytes", "lower"),
    ("cluster.steals", "count", "lower"),
    ("cluster.requeued", "count", "lower"),
    ("cluster.stale_results", "count", "lower"),
    ("cluster.quarantined", "count", "lower"),
    ("federation.front_cpu_ms_per_spec", "ms", "lower"),
    ("federation.pool_cpu_ms_per_spec", "ms", "lower"),
    ("federation.rehomed", "count", "lower"),
    ("federation.breaker_opens", "count", "lower"),
    ("telemetry.warehouse_record_s", "s", "lower"),
    ("telemetry.warehouse_rows_per_spec", "ratio", "lower"),
    ("trace.specs_per_s", "specs/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def load_dumps(trace_dir: Path) -> List[dict]:
    """Every process's span dump in ``trace_dir``."""
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]


def totals(dumps: Iterable[Mapping]) -> Dict[str, List[float]]:
    """Span name -> [calls, inclusive s, self s, summed amount]."""
    out: Dict[str, List[float]] = {}
    for dump in dumps:
        for name, start, end, self_ns, amount, parent, _key in dump["spans"]:
            entry = out.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += 1
            if parent != name:
                entry[1] += (end - start) / 1e9
            entry[2] += self_ns / 1e9
            entry[3] += amount
    return out


def from_spans(spans: Mapping[str, List[float]], specs: int) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced run."""
    def get(name, field):
        return spans.get(name, [0, 0.0, 0.0, 0])[field]

    calls, incl, self_, amount = 0, 1, 2, 3
    per_spec = 1.0 / specs if specs else 0.0
    events = get("sim.run", amount)
    return {
        "sim.run_s": get("sim.run", self_),
        "sim.events": events,
        "sim.us_per_event": (
            get("sim.run", self_) * 1e6 / events if events else 0.0
        ),
        "dsoc.calls": get("dsoc.call", calls),
        "dsoc.marshal_s": get("dsoc.marshal", incl),
        "apps.prefix_table_s": get("apps.prefix_table", incl),
        "apps.trie_insert_s": get("apps.trie_insert", incl),
        "apps.trie_lookup_s": get("apps.trie_lookup", incl),
        "apps.cam_build_s": get("apps.cam_build", incl),
        "noc.flow_evaluate_s": get("noc.flow_evaluate", incl),
        "noc.routing_builds": get("noc.routing_build", calls),
        "noc.routing_build_s": get("noc.routing_build", incl),
        "mapping.anneal_s": get("mapping.anneal", self_),
        "mapping.propose_calls": get("mapping.propose", calls),
        "mapping.propose_s": get("mapping.propose", incl),
        "mapping.evaluate_s": get("mapping.evaluate", incl),
        "engine.run_spec_s": get("engine.run_spec", incl),
        "engine.spec_hash_calls_per_spec":
            get("engine.spec_hash", calls) * per_spec,
        "engine.spec_hash_s": get("engine.spec_hash", incl),
        "engine.result_encode_s": get("engine.result_encode", incl),
        "engine.result_decode_s": get("engine.result_decode", incl),
        "engine.cache_get_s": get("engine.cache_get", incl),
        "engine.cache_put_s": get("engine.cache_put", incl),
        "service.frame_encode_s": get("service.frame_encode", incl),
        "service.frame_decode_s": get("service.frame_decode", incl),
        "service.frames_per_spec":
            get("service.frame_encode", calls) * per_spec,
        "service.wire_bytes_per_spec":
            get("service.frame_encode", amount) * per_spec,
        "cluster.journal_records_per_spec":
            get("cluster.journal_append", calls) * per_spec,
        "cluster.journal_append_s": get("cluster.journal_append", self_),
        "cluster.journal_compactions": get("cluster.journal_compact", calls),
        "cluster.journal_compact_s": get("cluster.journal_compact", incl),
        "cluster.snapshot_bytes_per_spec":
            get("cluster.journal_compact", amount) * per_spec,
        "telemetry.warehouse_record_s":
            get("telemetry.warehouse_record", incl),
    }


def keyed_spans(dumps: Iterable[Mapping], name: str, roles) -> Dict[str, list]:
    """spec hash -> [(start_ns, end_ns), ...] of span ``name`` in
    processes whose role starts with one of ``roles``."""
    out: Dict[str, list] = {}
    for dump in dumps:
        if not dump["role"].startswith(tuple(roles)):
            continue
        for span_name, start, end, _s, _a, _p, key in dump["spans"]:
            if span_name == name and key:
                out.setdefault(key, []).append((start, end))
    for spans in out.values():
        spans.sort()
    return out
