"""The DSOC object request broker.

Keeps the registry of deployed servant replicas and picks a replica for
each invocation.  The paper's claim that "given base properties of the
architecture, such as predictable NoC latency and throughput, the tools
can vastly simplify the mapping of the DSOC objects on to the
architecture" shows up here as pluggable replica-selection policies —
round-robin and shortest-queue — whose effect experiment E15 measures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, TYPE_CHECKING

from repro.dsoc.idl import IdlError, Interface
from repro.sim.core import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dsoc.runtime import DsocEndpoint, ServerBinding


class ReplicaPolicy(Enum):
    """How the broker picks among replicas of an object."""

    ROUND_ROBIN = "round_robin"
    SHORTEST_QUEUE = "shortest_queue"
    RANDOM = "random"


@dataclass
class Registration:
    """All replicas of one named object."""

    name: str
    interface: Interface
    replicas: List["ServerBinding"] = field(default_factory=list)
    _rr: itertools.cycle = field(default=None, repr=False)
    _rotation: int = field(default=0, repr=False)

    def pick(self, policy: ReplicaPolicy, rng=None) -> "ServerBinding":
        if not self.replicas:
            raise IdlError(f"object {self.name!r} has no deployed replicas")
        if policy is ReplicaPolicy.ROUND_ROBIN:
            if self._rr is None:
                self._rr = itertools.cycle(self.replicas)
            return next(self._rr)
        if policy is ReplicaPolicy.SHORTEST_QUEUE:
            # Rotate the scan start so queue-depth ties (the common case
            # at send time: in-flight requests are invisible to the
            # sender) round-robin instead of piling onto replica 0.
            count = len(self.replicas)
            start = self._rotation % count
            self._rotation += 1
            best = None
            best_depth = None
            for offset in range(count):
                replica = self.replicas[(start + offset) % count]
                depth = replica.queue_depth()
                if best_depth is None or depth < best_depth:
                    best = replica
                    best_depth = depth
            return best
        if policy is ReplicaPolicy.RANDOM:
            if rng is None:
                raise ValueError("RANDOM policy needs an rng")
            return rng.choice(self.replicas)
        raise ValueError(f"unhandled policy {policy}")  # pragma: no cover


class ObjectBroker:
    """Registry + replica selection."""

    def __init__(self, policy: ReplicaPolicy = ReplicaPolicy.ROUND_ROBIN) -> None:
        self.policy = policy
        self._objects: Dict[str, Registration] = {}

    def register(
        self,
        name: str,
        interface: Interface,
        binding: "ServerBinding",
    ) -> None:
        """Add a replica of object *name* (creating the registration)."""
        registration = self._objects.get(name)
        if registration is None:
            registration = Registration(name=name, interface=interface)
            self._objects[name] = registration
        elif registration.interface.name != interface.name:
            raise IdlError(
                f"object {name!r} already registered with interface "
                f"{registration.interface.name!r}, not {interface.name!r}"
            )
        registration.replicas.append(binding)
        registration._rr = None  # rebuild cycle over the new replica set

    def lookup(self, name: str) -> Registration:
        try:
            return self._objects[name]
        except KeyError:
            raise IdlError(
                f"no object named {name!r}; registered: "
                f"{', '.join(sorted(self._objects)) or '(none)'}"
            ) from None

    def pick_replica(self, name: str, rng=None) -> "ServerBinding":
        return self.lookup(name).pick(self.policy, rng)

class Proxy:
    """Client-side stub for a named DSOC object.

    Calls marshal their arguments and return an :class:`Event` that
    succeeds with the unmarshalled result (or immediately for oneway
    methods).
    """

    def __init__(
        self,
        endpoint: "DsocEndpoint",
        broker: ObjectBroker,
        name: str,
    ) -> None:
        self._endpoint = endpoint
        self._broker = broker
        self.name = name
        self.interface = broker.lookup(name).interface
        self.calls_issued = 0
        # Method signatures resolved once per proxy, not once per call
        # (line-rate clients issue one call per packet).
        self._signatures = {
            m.name: m for m in self.interface.methods
        }

    def call(self, method: str, *args: Any) -> Event:
        """Invoke *method* with positional *args*; returns a result event."""
        signature = self._signatures.get(method)
        if signature is None:
            signature = self.interface.method(method)  # raises IdlError
        signature.check_args(args)
        replica = self._broker.pick_replica(self.name)
        self.calls_issued += 1
        return self._endpoint.invoke(replica, self.name, method, args,
                                     oneway=signature.oneway)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Proxy {self.name!r} via t{self._endpoint.terminal}>"
