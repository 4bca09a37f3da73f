"""Cluster scheduling: one coordinator, many stateless workers.

The coordinator (:mod:`repro.cluster.coordinator`) is a scenario
service that executes nothing locally: every submitted spec joins
one FIFO backlog and is leased, one spec at a time, to whichever
registered worker (:mod:`repro.cluster.worker`) has free capacity;
each worker wraps an ordinary
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
