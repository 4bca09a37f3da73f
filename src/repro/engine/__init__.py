"""Scenario engine: declarative, batchable, cacheable workloads.

Every workload in the repository — the 18 paper experiments, the nine
ablation benchmarks and the mapping design-space sweeps — is described
by a frozen :class:`~repro.engine.spec.ScenarioSpec` and registered in
one namespace (:mod:`repro.engine.registry`).  The engine then provides

* :mod:`repro.engine.executor` — serial and multiprocessing backends
  behind one interface, with per-job timeouts and deterministic
  per-job RNG seeding derived from the spec hash;
* :mod:`repro.engine.cache` — an on-disk SQLite result cache keyed by
  spec hash + code version, so re-running a sweep only executes
  changed scenarios;
* :mod:`repro.engine.results` — uniform :class:`ScenarioResult`
  records aggregated into a single :class:`Report`;
* :mod:`repro.engine.cli` — ``python -m repro run|list|report``.
"""
