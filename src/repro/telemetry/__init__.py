"""Observability for the scenario platform: events, metrics, warehouse.

Three small, independent layers — all off by default so the hot paths
PR 2/3 bought stay untouched:

* :mod:`repro.telemetry.events` — structured :class:`Event` records on
  an in-process :class:`EventBus` (correlation ids: job id + spec
  hash), with a JSONL sink for durable traces.  ``emit`` is a cheap
  no-op while nothing is subscribed.
* :mod:`repro.telemetry.metrics` — a registry of counters / gauges /
  histograms with a ``snapshot()`` dict, exposed over the service
  protocol's ``status`` frame and ``repro status``.
* :mod:`repro.telemetry.warehouse` — a sqlite results warehouse
  (single-writer thread, WAL) that the local backend and the cluster
  coordinator write every :class:`ScenarioResult` through, queried by
  ``repro query``.

:mod:`repro.telemetry.spans` composes on top: cross-tier trace spans
emitted as ordinary bus events.
"""
