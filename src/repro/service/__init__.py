"""Scenario service: specs over the wire, results streamed back.

The paper's DSOC layer decouples computation from transport — objects
exchange typed messages over a NoC without caring where their peers
run.  This package applies the same decoupling to the experiment
engine itself:

* :mod:`repro.service.protocol` — versioned JSON-lines frames
  (``submit`` / ``status`` / ``stream`` / ``cancel`` / ``shutdown``),
  unit-testable without sockets;
* :mod:`repro.service.backend` — the ``Backend.run(specs)`` seam:
  :class:`LocalBackend` (engine executor + result cache) and
  :class:`RemoteBackend` (a peer service as a backend hop);
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

from repro.service.backend import (
    Backend,
    LocalBackend,
    RemoteBackend,
)
from repro.service.backoff import Backoff, jittered_delay
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
)
from repro.service.server import BackgroundServer, ScenarioServer
from repro.service.shard import (
    expand_specs,
    expand_sweep,
    parse_shard,
    shard_specs,
)

__all__ = [
    "Backend",
    "Backoff",
    "BackgroundServer",
    "FrameDecoder",
    "LocalBackend",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteBackend",
    "ScenarioServer",
    "ServiceClient",
    "ServiceError",
    "expand_specs",
    "expand_sweep",
    "jittered_delay",
    "parse_shard",
    "shard_specs",
]
