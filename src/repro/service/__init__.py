"""Scenario service: specs over the wire, results streamed back.

The paper's DSOC layer decouples computation from transport — objects
exchange typed messages over a NoC without caring where their peers
run.  This package applies the same decoupling to the experiment
engine itself:

* :mod:`repro.service.protocol` — versioned JSON-lines frames
  (``submit`` / ``status`` / ``stream`` / ``cancel`` / ``shutdown``),
  unit-testable without sockets;
* :mod:`repro.service.backend` — :class:`LocalBackend`, the engine
  executor and result cache behind one ``run(specs)`` call;
* :mod:`repro.service.server` — the asyncio front-end that validates
  specs against the registry, runs each job as one backend call, and
  streams each :class:`~repro.engine.results.ScenarioResult` as it
  completes;
* :mod:`repro.service.client` — the blocking client behind
  ``repro submit``;
* :mod:`repro.service.shard` — deterministic ``spec.with_params``
  sweep expansion and ``i/N`` round-robin sharding.

See ``docs/service.md`` for the protocol reference and examples.
"""
