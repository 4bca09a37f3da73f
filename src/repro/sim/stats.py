"""Streaming statistics for simulations.

:class:`Sampler` is the running mean/min/max accumulator the
packet-level NoC model (:func:`repro.noc.metrics.simulate_traffic`)
collects its packet latencies in.
"""

from __future__ import annotations

import math


class Sampler:
    """Streaming mean (Welford's update), minimum and maximum."""

    __slots__ = ("count", "_mean", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0
