"""In-memory spans around the program's layer boundaries.

:func:`install` wraps the public functions listed in :data:`TARGETS`
without editing the program: each wrapper records one span per call
(name, start, end, self time, parent, and the spec hash where the call
carries one) on a per-thread stack, so a span's self time is its
duration minus the time its child spans cover.  Spans stay in memory
until :meth:`Recorder.dump` writes them, normally at process exit.

A function is patched where its name is looked up: on its class for
methods, and on every loaded ``repro`` module that bound the function
object by name (``from repro.apps.trafficgen import build_cam``), so
calls through either path are timed.  Timestamps are
``time.monotonic_ns`` (CLOCK_MONOTONIC), one clock shared by every
process on the host, which is what lets spans from the client, the
coordinator and the workers be joined by spec hash.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path


class Recorder:
    """Span store for one process."""

    def __init__(self) -> None:
        #: False pauses recording (wrappers then cost one attribute load).
        self.active = True
        #: (name, start_ns, end_ns, self_ns, amount, parent, spec_hash)
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, before=None, amount=None, key=None):
        """``fn`` timed as span ``name``.

        ``before(args)`` runs just before the call; ``amount(args,
        result, token)`` (token = what ``before`` returned) adds a
        count such as bytes written; ``key(args)`` names the spec the
        call works on.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            token = before(args) if before is not None else None
            start = time.monotonic_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                extra = (
                    amount(args, result, token)
                    if ok and amount is not None else 0
                )
                ident = key(args) if key is not None else None
                span = (name, start, end, end - start - frame[1], extra,
                        parent[0] if parent is not None else None, ident)
                with recorder._lock:
                    recorder.spans.append(span)

        return traced

    def dump(self, path: Path, role: str) -> None:
        with self._lock:
            spans = list(self.spans)
        Path(path).write_text(json.dumps({"role": role, "spans": spans}))


# -- what gets wrapped --------------------------------------------------------

def _events(args):
    return args[0].events_executed


def _events_delta(args, _result, before):
    return args[0].events_executed - before


def _snapshot_bytes(args, _result, _token):
    path = args[0].snapshot_path
    return path.stat().st_size if path.exists() else 0


def _frame_bytes(_args, result, _token):
    return len(result)


def _spec_hash_of_batch(args):
    specs = args[1]
    return _raw_hash(specs[0]) if len(specs) == 1 else None


_raw_hash = None  # the unwrapped ScenarioSpec.content_hash getter

_SIM = dict(before=_events, amount=_events_delta)

#: (span name, module, attribute path, wrapper options).  Span names
#: are the per-layer metric prefixes the report aggregates.
TARGETS = [
    ("sim.run", "repro.sim.core", "Simulator.run", _SIM),
    ("sim.run", "repro.sim.core", "Simulator.run_steps", _SIM),
    ("dsoc.call", "repro.dsoc.broker", "Proxy.call", {}),
    ("dsoc.marshal", "repro.dsoc.marshal", "dumps", {}),
    ("dsoc.marshal", "repro.dsoc.marshal", "loads", {}),
    ("apps.prefix_table", "repro.apps.trafficgen", "random_prefix_table", {}),
    ("apps.trie_insert", "repro.apps.lpm", "LpmTrie.insert_many", {}),
    ("apps.trie_lookup", "repro.apps.lpm", "LpmTrie.lookup_many", {}),
    ("apps.cam_build", "repro.apps.trafficgen", "build_cam", {}),
    ("noc.flow_evaluate", "repro.noc.flow", "FlowModel.evaluate", {}),
    ("noc.routing_build", "repro.noc.routing", "build_routing", {}),
    ("mapping.anneal", "repro.mapping.anneal", "anneal_map", {}),
    ("mapping.propose", "repro.mapping.evaluator",
     "IncrementalMapping.propose", {}),
    ("mapping.evaluate", "repro.mapping.evaluator",
     "MappingEvaluator.evaluate", {}),
    ("mapping.evaluate", "repro.mapping.evaluator",
     "MappingEvaluator.evaluate_batch", {}),
    ("engine.run_spec", "repro.engine.executor", "run_spec", {}),
    ("engine.spec_hash", "repro.engine.spec", "ScenarioSpec.content_hash", {}),
    ("engine.result_encode", "repro.engine.results",
     "ScenarioResult.to_dict", {}),
    ("engine.result_decode", "repro.engine.results",
     "ScenarioResult.from_dict", {}),
    ("engine.cache_get", "repro.engine.cache", "ResultCache.get", {}),
    ("engine.cache_put", "repro.engine.cache", "ResultCache.put", {}),
    ("service.frame_encode", "repro.service.protocol", "encode_frame",
     dict(amount=_frame_bytes)),
    ("service.frame_decode", "repro.service.protocol",
     "FrameDecoder.feed", {}),
    ("service.frame_decode", "repro.service.protocol",
     "FrameDecoder.next_frame", {}),
    ("service.backend_run", "repro.service.backend", "LocalBackend.run",
     dict(key=_spec_hash_of_batch)),
] + [
    ("cluster.journal_append", "repro.cluster.journal",
     f"JobJournal.record_{event}", {})
    for event in ("submit", "lease", "assign", "complete", "job_done",
                  "resume")
] + [
    ("cluster.journal_compact", "repro.cluster.journal",
     "JobJournal.compact", dict(amount=_snapshot_bytes)),
    ("telemetry.warehouse_record", "repro.telemetry.warehouse",
     "ResultsWarehouse.record_result", {}),
]

#: modules imported before patching, so every by-name binding of a
#: wrapped function already exists when the identity scan runs.
PRELOAD = (
    "repro.engine.cli", "repro.engine.executor", "repro.service.client",
    "repro.service.server", "repro.service.backend",
    "repro.cluster.coordinator", "repro.cluster.worker",
    "repro.cluster.federation", "repro.cluster.journal",
    "repro.telemetry.warehouse",
)


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's by-name binding of
    ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch(recorder: Recorder, span: str, module_name: str, path: str,
           options: dict) -> None:
    module = importlib.import_module(module_name)
    if "." not in path:
        original = getattr(module, path)
        wrapped = recorder.wrap(span, original, **options)
        _rebind(original, wrapped)
        return
    cls_name, attr = path.split(".")
    cls = getattr(module, cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, property):
        setattr(cls, attr, property(recorder.wrap(span, raw.fget, **options)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr,
                classmethod(recorder.wrap(span, raw.__func__, **options)))
    else:
        setattr(cls, attr, recorder.wrap(span, raw, **options))


def install(recorder: Recorder, only=None) -> Recorder:
    """Wrap every target (or only the span names in ``only``).

    Loads the scenario registry first: scenario modules bind several
    targets by name at import, and those bindings must exist before
    the identity scan rebinds them.  The service and cluster modules
    are preloaded only for a full install, so a partial one adds
    nothing to the process's imports or memory.
    """
    if only is None:
        for module_name in PRELOAD:
            importlib.import_module(module_name)
    from repro.engine import registry

    registry.load_all()
    import repro.engine.spec as spec_module

    global _raw_hash
    _raw_hash = spec_module.ScenarioSpec.__dict__["content_hash"].fget
    for span, module_name, path, options in TARGETS:
        if only is None or span in only:
            _patch(recorder, span, module_name, path, options)
    return recorder
