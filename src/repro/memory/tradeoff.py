"""The embedded-memory architecture tradeoff explorer (experiment E17).

Enumerates candidate hierarchies (all-eSRAM, eSRAM+eDRAM,
eSRAM+external, eSRAM+eDRAM+external, ...) for a working-set sweep and
scores latency, power, area and cost.  The expected shape: small
working sets favour pure on-chip SRAM; large ones force external DRAM;
eDRAM wins a middle band by packing the working set on-die at a third
of the SRAM area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.memory.hierarchy import AccessProfile, MemoryHierarchy, MemoryLevel
from repro.memory.technology import EDRAM, ESRAM, EXTERNAL_DRAM


@dataclass(frozen=True)
class TradeoffPoint:
    """One (architecture, working set) evaluation."""

    architecture: str
    working_set_mb: float
    avg_latency_cycles: float
    total_power_mw: float
    on_chip_area_mm2: float
    memory_cost_usd: float

    def score(
        self,
        latency_weight: float = 1.0,
        power_weight: float = 1.0,
        area_weight: float = 1.0,
        cost_weight: float = 1.0,
    ) -> float:
        """Weighted geometric cost (lower is better)."""
        return (
            self.avg_latency_cycles ** latency_weight
            * self.total_power_mw ** power_weight
            * (1.0 + self.on_chip_area_mm2) ** area_weight
            * (1.0 + self.memory_cost_usd) ** cost_weight
        )


def _candidate_architectures(
    working_set_mb: float,
) -> Dict[str, MemoryHierarchy]:
    """Standard candidate hierarchies sized for a working set."""
    ws = working_set_mb
    scratch = max(0.0625, min(1.0, ws / 8.0))  # 64 KB .. 1 MB scratchpad
    candidates: Dict[str, MemoryHierarchy] = {
        "all_esram": MemoryHierarchy([MemoryLevel(ESRAM, max(ws, scratch))]),
        "esram_edram": MemoryHierarchy(
            [MemoryLevel(ESRAM, scratch), MemoryLevel(EDRAM, max(ws, 1.0))]
        ),
        "esram_external": MemoryHierarchy(
            [MemoryLevel(ESRAM, scratch), MemoryLevel(EXTERNAL_DRAM, max(ws, 8.0))]
        ),
        "esram_edram_external": MemoryHierarchy(
            [
                MemoryLevel(ESRAM, scratch),
                MemoryLevel(EDRAM, max(1.0, min(ws, 8.0))),
                MemoryLevel(EXTERNAL_DRAM, max(ws, 8.0)),
            ]
        ),
    }
    return candidates


def architecture_tradeoff(
    working_set_mb: float,
    profile_factory: Callable[[float], AccessProfile] | None = None,
    clock_ghz: float = 0.5,
) -> List[TradeoffPoint]:
    """Evaluate every candidate architecture at one working set."""
    if profile_factory is None:
        profile_factory = lambda ws: AccessProfile(working_set_mb=ws)
    profile = profile_factory(working_set_mb)
    points = []
    for name, hierarchy in _candidate_architectures(working_set_mb).items():
        points.append(
            TradeoffPoint(
                architecture=name,
                working_set_mb=working_set_mb,
                avg_latency_cycles=hierarchy.average_latency_cycles(profile),
                total_power_mw=hierarchy.total_power_mw(profile, clock_ghz),
                on_chip_area_mm2=hierarchy.on_chip_area_mm2(),
                memory_cost_usd=hierarchy.memory_cost_usd(),
            )
        )
    return points


def best_architecture(
    working_set_mb: float,
    latency_weight: float = 1.0,
    power_weight: float = 1.0,
    area_weight: float = 1.0,
    cost_weight: float = 1.0,
) -> TradeoffPoint:
    """Lowest-score architecture at one working set."""
    points = architecture_tradeoff(working_set_mb)
    return min(
        points,
        key=lambda p: p.score(
            latency_weight, power_weight, area_weight, cost_weight
        ),
    )
