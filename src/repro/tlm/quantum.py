"""Loosely-timed temporal decoupling.

The quantum keeper is the engine of TLM's simulation-speed advantage:
an initiator runs ahead of global simulated time, accumulating delay in
a local offset, and only synchronizes with the kernel when the offset
exceeds the global quantum.  Larger quanta mean fewer kernel events
(faster wall-clock simulation) at the cost of timing fidelity — the
tradeoff :mod:`repro.tlm.compare` measures.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.core import Simulator, Timeout


class QuantumKeeper:
    """Tracks an initiator's local time offset against the quantum."""

    def __init__(self, sim: Simulator, quantum: float) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.sim = sim
        self.quantum = quantum
        self._local_offset = 0.0
        self.sync_count = 0

    def add(self, delay: float) -> None:
        """Accumulate annotated delay locally."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._local_offset += delay

    def need_sync(self) -> bool:
        return self._local_offset >= self.quantum

    def sync(self) -> Generator:
        """Yield control to the kernel for the accumulated offset."""
        offset, self._local_offset = self._local_offset, 0.0
        self.sync_count += 1
        yield Timeout(offset)

    def maybe_sync(self) -> Generator:
        """Sync only when the quantum is exceeded (the LT idiom)."""
        if self.need_sync():
            yield from self.sync()

    def flush(self) -> Generator:
        """Unconditionally reconcile local time (end of a phase)."""
        if self._local_offset > 0:
            yield from self.sync()
