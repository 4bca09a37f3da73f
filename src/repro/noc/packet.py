"""NoC packet representation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_packet_ids = itertools.count()


@dataclass
class Packet:
    """A multi-flit packet travelling through the network.

    Attributes
    ----------
    src, dst:
        Terminal (network-interface) indices.
    size_flits:
        Packet length in flits; the header flit leads and the body
        pipelines behind it (cut-through switching).
    injected_at:
        Simulation time at which the packet entered the source queue.
    delivered_at:
        Set by the network on arrival at the destination terminal.
    hops:
        Router-to-router hops taken.
    payload:
        Opaque user data (the DSOC layer carries marshalled messages
        here).
    """

    src: int
    dst: int
    size_flits: int = 4
    injected_at: float = 0.0
    delivered_at: Optional[float] = None
    hops: int = 0
    payload: Any = None
    packet_id: int = field(default_factory=_packet_ids.__next__)

    def __post_init__(self) -> None:
        if self.size_flits < 1:
            raise ValueError(f"packet needs >=1 flit, got {self.size_flits}")
        if self.src < 0 or self.dst < 0:
            raise ValueError(f"negative terminal index ({self.src}->{self.dst})")

    @property
    def latency(self) -> float:
        """End-to-end latency; only valid after delivery."""
        if self.delivered_at is None:
            raise ValueError(f"packet {self.packet_id} not yet delivered")
        return self.delivered_at - self.injected_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = f"@{self.delivered_at}" if self.delivered_at is not None else "in-flight"
        return (
            f"<Packet #{self.packet_id} {self.src}->{self.dst} "
            f"{self.size_flits}f {status}>"
        )
