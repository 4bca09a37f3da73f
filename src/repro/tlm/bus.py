"""TLM bus and targets.

An :class:`AddressMap` routes generic payloads to :class:`TlmTarget`
instances by address range; :class:`TlmBus` adds per-transport timing
annotation (arbitration + transfer) in the blocking-transport style:
``b_transport(payload) -> annotated delay`` with no kernel interaction —
callers accumulate the delay in their quantum keeper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.tlm.payload import GenericPayload, ResponseStatus, TlmCommand


class TlmTarget:
    """Base class: a memory-mapped target with an access latency."""

    def __init__(self, name: str, access_delay: float = 10.0) -> None:
        if access_delay < 0:
            raise ValueError(f"negative access delay {access_delay}")
        self.name = name
        self.access_delay = access_delay
        self.transactions = 0

    def b_transport(self, payload: GenericPayload, offset: int) -> float:
        """Service the payload; returns the annotated delay."""
        self.transactions += 1
        delay = self.access_delay
        if payload.command is TlmCommand.READ:
            payload.data = self._read(offset, payload.length)
            payload.status = ResponseStatus.OK
        elif payload.command is TlmCommand.WRITE:
            self._write(offset, payload.data or b"\x00" * payload.length)
            payload.status = ResponseStatus.OK
        elif payload.command is TlmCommand.IGNORE:
            payload.status = ResponseStatus.OK
            delay = 0.0
        else:  # pragma: no cover - enum is closed
            payload.status = ResponseStatus.COMMAND_ERROR
        return delay

    def _read(self, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def _write(self, offset: int, data: bytes) -> None:
        raise NotImplementedError


class TlmMemory(TlmTarget):
    """A byte-addressable sparse memory target."""

    def __init__(self, name: str, size: int, access_delay: float = 10.0) -> None:
        super().__init__(name, access_delay)
        if size < 1:
            raise ValueError(f"memory size must be >=1, got {size}")
        self.size = size
        self._bytes: Dict[int, int] = {}

    def _read(self, offset: int, length: int) -> bytes:
        return bytes(self._bytes.get(offset + i, 0) for i in range(length))

    def _write(self, offset: int, data: bytes) -> None:
        for i, value in enumerate(data):
            self._bytes[offset + i] = value


@dataclass(frozen=True)
class Mapping:
    """One address range claim."""

    base: int
    size: int
    target: TlmTarget

    @property
    def end(self) -> int:
        return self.base + self.size


class AddressMap:
    """Non-overlapping address decoding."""

    def __init__(self) -> None:
        self._maps: List[Mapping] = []

    def add(self, base: int, size: int, target: TlmTarget) -> None:
        if base < 0 or size < 1:
            raise ValueError(f"bad range base={base:#x} size={size}")
        new = Mapping(base, size, target)
        for existing in self._maps:
            if new.base < existing.end and existing.base < new.end:
                raise ValueError(
                    f"range {base:#x}+{size:#x} overlaps "
                    f"{existing.target.name} at {existing.base:#x}"
                )
        self._maps.append(new)
        self._maps.sort(key=lambda m: m.base)

    def decode(self, address: int) -> Optional[Tuple[TlmTarget, int]]:
        """Return (target, offset) for an address, or None."""
        for mapping in self._maps:
            if mapping.base <= address < mapping.end:
                return mapping.target, address - mapping.base
        return None


class TlmBus:
    """A timed interconnect at the transaction level.

    Timing annotation per transport: fixed arbitration delay plus
    byte-count / bandwidth transfer time plus the target's access
    delay.  All pure computation — no simulation events — which is why
    loosely-timed TLM is orders of magnitude faster than cycle models.
    """

    def __init__(
        self,
        address_map: AddressMap,
        arbitration_delay: float = 2.0,
        bytes_per_cycle: float = 8.0,
    ) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("bus bandwidth must be positive")
        self.address_map = address_map
        self.arbitration_delay = arbitration_delay
        self.bytes_per_cycle = bytes_per_cycle
        self.transports = 0

    def b_transport(self, payload: GenericPayload) -> float:
        """Route and service the payload; returns the annotated delay."""
        self.transports += 1
        decoded = self.address_map.decode(payload.address)
        if decoded is None:
            payload.status = ResponseStatus.ADDRESS_ERROR
            return self.arbitration_delay
        target, offset = decoded
        transfer = payload.length / self.bytes_per_cycle
        return self.arbitration_delay + transfer + target.b_transport(
            payload, offset
        )
