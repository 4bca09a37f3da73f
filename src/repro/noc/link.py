"""Serialized NoC links.

A :class:`Link` transfers one flit per cycle.  Packets are serviced
first-come-first-served; a packet of S flits holds the link for S
cycles.  Queueing at a busy link is unbounded (virtual cut-through with
elastic buffering), so saturation appears as unbounded waiting time —
exactly the latency blow-up the load-latency experiments look for.
"""

from __future__ import annotations


class Link:
    """One directed router-to-router (or terminal) link."""

    __slots__ = (
        "name",
        "flits_per_cycle",
        "_next_free",
        "busy_cycles",
        "flits_carried",
        "packets_carried",
    )

    def __init__(self, name: str, flits_per_cycle: float = 1.0) -> None:
        if flits_per_cycle <= 0:
            raise ValueError(f"link bandwidth must be positive, got {flits_per_cycle}")
        self.name = name
        self.flits_per_cycle = flits_per_cycle
        self._next_free = 0.0
        self.busy_cycles = 0.0
        self.flits_carried = 0
        self.packets_carried = 0

    def reserve(self, now: float, size_flits: int) -> tuple[float, float]:
        """Reserve the link for a packet arriving at *now*.

        Returns ``(start_time, finish_time)``: transmission begins when
        the link frees up and lasts ``size_flits / flits_per_cycle``.
        """
        next_free = self._next_free
        start = now if now > next_free else next_free
        duration = size_flits / self.flits_per_cycle
        finish = start + duration
        self._next_free = finish
        self.busy_cycles += duration
        self.flits_carried += size_flits
        self.packets_carried += 1
        return start, finish

    def utilization(self, horizon: float) -> float:
        """Busy fraction of the link over ``[0, horizon]``."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / horizon)

    @property
    def next_free(self) -> float:
        """Earliest time a new packet could start transmitting."""
        return self._next_free
