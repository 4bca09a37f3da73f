"""Cluster scheduling: one coordinator, many stateless workers.

The coordinator (:mod:`repro.cluster.coordinator`) is a scenario
service that executes nothing locally: every submitted spec goes
into a work-stealing queue (:mod:`repro.cluster.queue`) and is
leased, one spec at a time, to registered workers
(:mod:`repro.cluster.worker`), each of which wraps an ordinary
:class:`~repro.service.backend.LocalBackend`.  A durable job journal
(:mod:`repro.cluster.journal`) makes ``repro coordinator --resume``
replay state after a crash without re-executing completed specs —
with periodic compaction keeping that replay O(live jobs).  A
:class:`~repro.cluster.supervisor.WorkerSupervisor`
(:mod:`repro.cluster.supervisor`) can autoscale and self-heal a local
worker fleet, and :mod:`repro.cluster.chaos` injects deterministic
faults for testing all of the above.

One level up, :mod:`repro.cluster.federation` makes a whole pool one
more worker: a :class:`~repro.cluster.federation.PoolBridge` registers
on any coordinator and forwards its leases to its pool, so one sweep
spreads across N pools through the same lease scheduler, journal and
failure handling.

See ``docs/cluster.md`` for topology, frame and failure semantics.
"""

from repro.cluster.chaos import ChaosError, ChaosMonkey
from repro.cluster.federation import FederatedCoordinator, PoolBridge
from repro.cluster.journal import JobJournal, JournalState
from repro.cluster.queue import WorkStealingQueue
from repro.cluster.supervisor import WorkerSupervisor, process_spawner

__all__ = [
    "ChaosError",
    "ChaosMonkey",
    "FederatedCoordinator",
    "JobJournal",
    "JournalState",
    "PoolBridge",
    "WorkStealingQueue",
    "WorkerSupervisor",
    "process_spawner",
]
