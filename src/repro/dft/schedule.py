"""SoC-level test scheduling.

Cores share the test access mechanism and a power envelope; the
scheduler packs per-core tests into parallel sessions to minimize total
test time — the SoC-complexity DFT problem Section 4 says must evolve
with platform scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.dft.wrapper import CoreTestSpec, Ieee1500Wrapper


@dataclass
class ScheduledTest:
    """One core's test occurrence in the schedule."""

    core: str
    start_cycle: float
    end_cycle: float
    tam_width: int
    power_mw: float


@dataclass
class SocTestSchedule:
    """A complete SoC test schedule."""

    entries: List[ScheduledTest] = field(default_factory=list)
    tam_width: int = 0
    power_budget_mw: float = 0.0

    @property
    def total_cycles(self) -> float:
        return max((e.end_cycle for e in self.entries), default=0.0)

    def power_at(self, cycle: float) -> float:
        return sum(
            e.power_mw
            for e in self.entries
            if e.start_cycle <= cycle < e.end_cycle
        )

    def validate(self) -> None:
        """Check TAM and power constraints at every event boundary."""
        events = sorted(
            {e.start_cycle for e in self.entries}
            | {e.end_cycle for e in self.entries}
        )
        for t in events:
            width = sum(
                e.tam_width
                for e in self.entries
                if e.start_cycle <= t < e.end_cycle
            )
            if width > self.tam_width:
                raise ValueError(
                    f"TAM overcommitted at cycle {t}: {width} > {self.tam_width}"
                )
            power = self.power_at(t)
            if self.power_budget_mw and power > self.power_budget_mw + 1e-9:
                raise ValueError(
                    f"power budget exceeded at cycle {t}: "
                    f"{power} > {self.power_budget_mw} mW"
                )


def schedule_tests(
    specs: List[CoreTestSpec],
    tam_width: int = 16,
    power_budget_mw: float = 0.0,
    width_per_core: Optional[int] = None,
) -> SocTestSchedule:
    """Greedy rectangle packing of core tests.

    Each core gets ``width_per_core`` TAM wires (default: a quarter of
    the TAM, at least 1); cores are sorted longest-first and placed at
    the earliest time where both TAM wires and power headroom exist.
    """
    if tam_width < 1:
        raise ValueError(f"TAM width must be >=1, got {tam_width}")
    per_core = width_per_core or max(1, tam_width // 4)
    per_core = min(per_core, tam_width)
    jobs: List[Tuple[float, CoreTestSpec]] = []
    for spec in specs:
        cycles = Ieee1500Wrapper(spec, per_core).test_cycles()
        jobs.append((float(cycles), spec))
    jobs.sort(key=lambda pair: -pair[0])
    schedule = SocTestSchedule(tam_width=tam_width, power_budget_mw=power_budget_mw)
    for duration, spec in jobs:
        start = 0.0
        while True:
            # Candidate interval [start, start+duration): feasible?
            boundaries = sorted(
                {start}
                | {
                    e.start_cycle
                    for e in schedule.entries
                    if start <= e.start_cycle < start + duration
                }
                | {
                    e.end_cycle
                    for e in schedule.entries
                    if start < e.end_cycle <= start + duration
                }
            )
            conflict_at = None
            for t in boundaries:
                width = sum(
                    e.tam_width
                    for e in schedule.entries
                    if e.start_cycle <= t < e.end_cycle
                )
                power = schedule.power_at(t)
                if width + per_core > tam_width or (
                    power_budget_mw
                    and power + spec.test_power_mw > power_budget_mw
                ):
                    conflict_at = t
                    break
            if conflict_at is None:
                break
            # Jump past the earliest finishing blocker after the conflict.
            ends = [
                e.end_cycle
                for e in schedule.entries
                if e.end_cycle > conflict_at
            ]
            start = min(ends)
        schedule.entries.append(
            ScheduledTest(
                core=spec.name,
                start_cycle=start,
                end_cycle=start + duration,
                tam_width=per_core,
                power_mw=spec.test_power_mw,
            )
        )
    schedule.validate()
    return schedule


def serial_test_cycles(specs: List[CoreTestSpec], tam_width: int = 16) -> float:
    """Baseline: test every core one after another on the full TAM."""
    return float(
        sum(Ieee1500Wrapper(spec, tam_width).test_cycles() for spec in specs)
    )
