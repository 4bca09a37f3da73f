"""OCP-style socket layer: request/response transactions over the NoC.

The paper (Section 6.1) uses "the proposed OCP-IP standard in our
MP-SoC platform experiments" as the socket between IP blocks and the
interconnect.  This module provides that abstraction: a
:class:`OcpMaster` issues split-transaction reads/writes addressed to a
target terminal; an :class:`OcpSlave` services them with a configurable
access latency; responses route back over the network.  The processor
and DSOC runtimes are written against these sockets, so they run
unchanged on any topology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.sim.core import Event, Simulator

_txn_ids = itertools.count()


@dataclass
class Transaction:
    """One split OCP transaction."""

    txn_id: int
    kind: str              # "read" | "write"
    initiator: int         # master terminal
    target: int            # slave terminal
    address: int
    data: Any = None
    response: Any = None


class OcpMaster:
    """Initiator socket bound to one network terminal.

    ``yield master.read(target, addr)`` suspends the calling process
    until the response packet returns; the yielded value is the slave's
    response data.  Any number of transactions may be outstanding —
    the split-transaction behaviour Section 6.2 calls out as a latency-
    hiding requirement.
    """

    def __init__(self, network: Network, terminal: int, name: str = "") -> None:
        self.network = network
        self.sim: Simulator = network.sim
        self.terminal = terminal
        self.name = name or f"master{terminal}"
        self._pending: Dict[int, Event] = {}
        self.completed = 0
        network.attach(terminal, self._on_packet)

    def read(self, target: int, address: int, size_flits: int = 2) -> Event:
        """Issue a read; returns an event yielding the response data."""
        return self._issue("read", target, address, None, size_flits)

    def write(
        self, target: int, address: int, data: Any, size_flits: int = 4
    ) -> Event:
        """Issue a posted-acknowledged write."""
        return self._issue("write", target, address, data, size_flits)

    def _issue(
        self, kind: str, target: int, address: int, data: Any, size_flits: int
    ) -> Event:
        txn = Transaction(
            txn_id=next(_txn_ids),
            kind=kind,
            initiator=self.terminal,
            target=target,
            address=address,
            data=data,
        )
        done = self.sim.event(f"{self.name}.txn{txn.txn_id}")
        self._pending[txn.txn_id] = done
        packet = Packet(
            src=self.terminal,
            dst=target,
            size_flits=size_flits,
            payload=("req", txn),
        )
        self.network.send(packet)
        return done

    def _on_packet(self, packet: Packet) -> None:
        tag, txn = packet.payload
        if tag != "rsp":
            raise ValueError(
                f"{self.name} received non-response packet {packet!r}"
            )
        done = self._pending.pop(txn.txn_id, None)
        if done is None:
            raise ValueError(
                f"{self.name} got response for unknown txn {txn.txn_id}"
            )
        self.completed += 1
        done.succeed(txn.response)


class OcpSlave:
    """Target socket: services requests with a fixed access latency.

    *handler(txn)* computes the response payload; default slaves act as
    simple memory (reads return what writes stored).
    """

    def __init__(
        self,
        network: Network,
        terminal: int,
        access_latency: float = 1.0,
        handler: Optional[Callable[[Transaction], Any]] = None,
        response_size_flits: int = 4,
        name: str = "",
    ) -> None:
        if access_latency < 0:
            raise ValueError(f"negative access latency {access_latency}")
        self.network = network
        self.sim: Simulator = network.sim
        self.terminal = terminal
        self.access_latency = access_latency
        self.response_size_flits = response_size_flits
        self.name = name or f"slave{terminal}"
        self._memory: Dict[int, Any] = {}
        self._handler = handler
        self.served = 0
        network.attach(terminal, self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        tag, txn = packet.payload
        if tag != "req":
            raise ValueError(f"{self.name} received non-request packet {packet!r}")

        def respond() -> None:
            txn.response = self._service(txn)
            self.served += 1
            reply = Packet(
                src=self.terminal,
                dst=txn.initiator,
                size_flits=self.response_size_flits,
                payload=("rsp", txn),
            )
            self.network.send(reply)

        self.sim.schedule(self.access_latency, respond)

    def _service(self, txn: Transaction) -> Any:
        if self._handler is not None:
            return self._handler(txn)
        if txn.kind == "read":
            return self._memory.get(txn.address)
        if txn.kind == "write":
            self._memory[txn.address] = txn.data
            return True
        raise ValueError(f"unknown transaction kind {txn.kind!r}")
