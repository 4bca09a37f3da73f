"""Memory hierarchy composition and evaluation.

A :class:`MemoryHierarchy` stacks levels (e.g. eSRAM scratchpad over
eDRAM over external DRAM); given a working set and access profile it
computes average access latency/energy, die area and cost — the figures
the platform-level "embedded memory architecture tradeoff" weighs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.memory.technology import MemoryTechnology


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the hierarchy: a technology and its capacity."""

    technology: MemoryTechnology
    capacity_mb: float

    def __post_init__(self) -> None:
        if self.capacity_mb <= 0:
            raise ValueError(
                f"{self.technology.name}: capacity must be positive, "
                f"got {self.capacity_mb}"
            )


@dataclass
class AccessProfile:
    """Workload memory behaviour.

    Attributes
    ----------
    working_set_mb:
        Hot data footprint.
    accesses_per_cycle:
        Memory references issued per SoC cycle.
    bytes_per_access:
        Transfer granularity.
    write_fraction:
        Share of references that are writes.
    locality:
        0-1: probability an access hits the smallest level that fits its
        locality slice; higher = more cache-friendly.
    """

    working_set_mb: float
    accesses_per_cycle: float = 0.3
    bytes_per_access: int = 8
    write_fraction: float = 0.3
    locality: float = 0.8

    def __post_init__(self) -> None:
        if self.working_set_mb <= 0:
            raise ValueError("working set must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write fraction must be in [0,1]")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality must be in [0,1]")


@dataclass
class MemoryHierarchy:
    """Ordered levels, fastest/smallest first."""

    levels: List[MemoryLevel]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("hierarchy needs at least one level")

    def on_chip_area_mm2(self) -> float:
        """Die area of the on-chip levels (plus controllers for external)."""
        return sum(
            level.technology.area_mm2_per_mb * level.capacity_mb
            for level in self.levels
        )

    def memory_cost_usd(self) -> float:
        return sum(
            level.technology.cost_usd_per_mb * level.capacity_mb
            for level in self.levels
        )

    def static_power_mw(self) -> float:
        return sum(
            level.technology.static_mw_per_mb * level.capacity_mb
            for level in self.levels
        )

    def hit_distribution(self, profile: AccessProfile) -> List[float]:
        """Fraction of accesses served by each level.

        A geometric locality model: the first level captures
        ``locality * min(1, capacity/working_set)`` of references, the
        remainder cascades down; the last level is the backstop and
        must fit the working set.
        """
        remaining = 1.0
        fractions: List[float] = []
        for index, level in enumerate(self.levels):
            is_last = index == len(self.levels) - 1
            if is_last:
                fractions.append(remaining)
                remaining = 0.0
                break
            coverage = min(1.0, level.capacity_mb / profile.working_set_mb)
            hit = remaining * profile.locality * coverage
            fractions.append(hit)
            remaining -= hit
        if remaining > 1e-12:  # pragma: no cover - loop invariant
            raise RuntimeError("hit distribution does not sum to 1")
        return fractions

    def average_latency_cycles(self, profile: AccessProfile) -> float:
        """Expected access latency under the profile."""
        self._check_backstop(profile)
        fractions = self.hit_distribution(profile)
        total = 0.0
        for level, fraction in zip(self.levels, fractions):
            latency = (
                profile.write_fraction * level.technology.access_latency(write=True)
                + (1.0 - profile.write_fraction)
                * level.technology.access_latency(write=False)
            )
            total += fraction * latency
        return total

    def dynamic_power_mw(self, profile: AccessProfile, clock_ghz: float = 0.5) -> float:
        """Access power under the profile at a clock frequency."""
        self._check_backstop(profile)
        fractions = self.hit_distribution(profile)
        accesses_per_s = profile.accesses_per_cycle * clock_ghz * 1e9
        total_w = 0.0
        for level, fraction in zip(self.levels, fractions):
            energy_pj = profile.write_fraction * level.technology.access_energy_pj(
                profile.bytes_per_access, write=True
            ) + (1.0 - profile.write_fraction) * level.technology.access_energy_pj(
                profile.bytes_per_access, write=False
            )
            total_w += fraction * accesses_per_s * energy_pj * 1e-12
        return total_w * 1000.0

    def total_power_mw(self, profile: AccessProfile, clock_ghz: float = 0.5) -> float:
        return self.static_power_mw() + self.dynamic_power_mw(profile, clock_ghz)

    def _check_backstop(self, profile: AccessProfile) -> None:
        backstop = self.levels[-1]
        if backstop.capacity_mb < profile.working_set_mb:
            raise ValueError(
                f"backstop level {backstop.technology.name!r} "
                f"({backstop.capacity_mb} MB) cannot hold the "
                f"{profile.working_set_mb} MB working set"
            )
