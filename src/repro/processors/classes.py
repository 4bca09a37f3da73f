"""The Figure-1 processor spectrum.

Figure 1 of the paper arranges implementation vehicles on two axes:
ease-of-use / time-to-market on one, and product differentiation
(power, performance, cost) on the other.  General-purpose RISC sits at
the flexible/slow end, hardwired logic at the efficient/rigid end, with
DSPs, configurable processors (Arc, Tensilica), ASIPs, reconfigurable
processors and eFPGA in between.  Experiment E8 regenerates the figure
as a data series and checks the expected monotone tradeoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ProcessorKind(Enum):
    """Vehicles on the Figure-1 spectrum, flexible-first."""

    GENERAL_PURPOSE_RISC = "gp_risc"
    DSP = "dsp"
    CONFIGURABLE_PROCESSOR = "configurable"     # Arc/Tensilica-style
    ASIP = "asip"
    RECONFIGURABLE_PROCESSOR = "reconfigurable"  # run-time architecture changes
    EFPGA = "efpga"
    HARDWIRED = "hardwired"


@dataclass(frozen=True)
class ProcessorClass:
    """Quantified position of one vehicle on the Figure-1 axes.

    Attributes
    ----------
    kind:
        Which vehicle.
    flexibility:
        0-1: fraction of conceivable spec changes absorbable after
        silicon (software change vs. respin).
    time_to_market_months:
        Typical time to retarget an existing application.
    relative_performance:
        Throughput on its target kernel class, normalized to GP RISC = 1.
    relative_power_efficiency:
        Useful operations per joule, normalized to GP RISC = 1.
    relative_area_efficiency:
        Useful operations per mm^2, normalized to GP RISC = 1.
    programming_effort:
        Relative effort to (re)program: 1 = plain C on a RISC.
    """

    kind: ProcessorKind
    flexibility: float
    time_to_market_months: float
    relative_performance: float
    relative_power_efficiency: float
    relative_area_efficiency: float
    programming_effort: float

    def differentiation(self) -> float:
        """Scalar "product differentiation" score (geometric mean of the
        performance/power/area advantages), the paper's vertical axis."""
        return (
            self.relative_performance
            * self.relative_power_efficiency
            * self.relative_area_efficiency
        ) ** (1.0 / 3.0)


#: Literature-typical values for the early-2000s design space.  The
#: hardwired end is ~100x more energy-efficient than a GP RISC on its
#: target function; eFPGA sits ~10x below hardwired (the paper's 10x
#: penalty); specialization steps (DSP, configurable, ASIP) each buy
#: roughly 2-4x.
FIGURE1_CLASSES: dict[ProcessorKind, ProcessorClass] = {
    c.kind: c
    for c in [
        ProcessorClass(
            kind=ProcessorKind.GENERAL_PURPOSE_RISC,
            flexibility=1.00, time_to_market_months=1.0,
            relative_performance=1.0, relative_power_efficiency=1.0,
            relative_area_efficiency=1.0, programming_effort=1.0,
        ),
        ProcessorClass(
            kind=ProcessorKind.DSP,
            flexibility=0.85, time_to_market_months=2.0,
            relative_performance=4.0, relative_power_efficiency=3.0,
            relative_area_efficiency=3.0, programming_effort=2.0,
        ),
        ProcessorClass(
            kind=ProcessorKind.CONFIGURABLE_PROCESSOR,
            flexibility=0.70, time_to_market_months=4.0,
            relative_performance=8.0, relative_power_efficiency=6.0,
            relative_area_efficiency=5.0, programming_effort=3.0,
        ),
        ProcessorClass(
            kind=ProcessorKind.ASIP,
            flexibility=0.55, time_to_market_months=8.0,
            relative_performance=15.0, relative_power_efficiency=12.0,
            relative_area_efficiency=10.0, programming_effort=5.0,
        ),
        ProcessorClass(
            kind=ProcessorKind.RECONFIGURABLE_PROCESSOR,
            flexibility=0.60, time_to_market_months=6.0,
            relative_performance=10.0, relative_power_efficiency=7.0,
            relative_area_efficiency=4.0, programming_effort=6.0,
        ),
        ProcessorClass(
            kind=ProcessorKind.EFPGA,
            flexibility=0.45, time_to_market_months=5.0,
            relative_performance=20.0, relative_power_efficiency=10.0,
            relative_area_efficiency=10.0, programming_effort=8.0,
        ),
        ProcessorClass(
            kind=ProcessorKind.HARDWIRED,
            flexibility=0.02, time_to_market_months=18.0,
            relative_performance=50.0, relative_power_efficiency=100.0,
            relative_area_efficiency=100.0, programming_effort=20.0,
        ),
    ]
}


def figure1_series() -> list[dict]:
    """Figure 1 as rows: (vehicle, flexibility, differentiation, TTM)."""
    rows = []
    for kind, cls in FIGURE1_CLASSES.items():
        rows.append(
            {
                "vehicle": kind.value,
                "flexibility": cls.flexibility,
                "time_to_market_months": cls.time_to_market_months,
                "differentiation": round(cls.differentiation(), 2),
                "power_efficiency": cls.relative_power_efficiency,
                "performance": cls.relative_performance,
            }
        )
    return rows


def pareto_front(
    classes: dict[ProcessorKind, ProcessorClass] | None = None,
) -> list[ProcessorKind]:
    """Vehicles not dominated on (flexibility, differentiation).

    Figure 1's message is that the spectrum *is* a tradeoff: more
    differentiation costs flexibility.  A vehicle is dominated if
    another is at least as good on both axes and better on one.
    """
    classes = classes or FIGURE1_CLASSES
    front = []
    for kind, cls in classes.items():
        dominated = False
        for other_kind, other in classes.items():
            if other_kind is kind:
                continue
            if (
                other.flexibility >= cls.flexibility
                and other.differentiation() >= cls.differentiation()
                and (
                    other.flexibility > cls.flexibility
                    or other.differentiation() > cls.differentiation()
                )
            ):
                dominated = True
                break
        if not dominated:
            front.append(kind)
    return front
