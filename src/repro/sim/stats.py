"""Streaming statistics for simulations.

:class:`Sampler` is the mean/variance/min/max accumulator the
NoC metrics and the RTOS kernel's response times use.
"""

from __future__ import annotations

import math
from typing import Iterable


class Sampler:
    """Streaming mean/variance/min/max using Welford's algorithm."""

    __slots__ = ("name", "count", "_mean", "_m2", "minimum", "maximum", "total")

    def __init__(self, name: str = "sampler") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Sampler({self.name}: n={self.count} mean={self.mean:.4g} "
            f"min={self.minimum:.4g} max={self.maximum:.4g})"
        )
