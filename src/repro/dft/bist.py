"""Built-in self test models.

Section 4: "BIST will need to support all sorts of IP's: not only
memories, but also digital logic, analog and RF."  Provided here:
memory BIST via the classic March algorithms (exact operation counts)
and the random patterns logic BIST needs for a fault-coverage target
(coverage exponential in patterns, the standard single-stuck-at
approximation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MarchAlgorithm:
    """A March memory-test algorithm.

    ``operations_per_cell`` is the March complexity (e.g. March C- is
    10N); ``detects`` lists the fault classes covered.
    """

    name: str
    operations_per_cell: int
    detects: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.operations_per_cell < 1:
            raise ValueError(f"{self.name}: complexity must be >=1")


MARCH_ALGORITHMS: dict[str, MarchAlgorithm] = {
    a.name: a
    for a in [
        MarchAlgorithm("mats+", 5, ("stuck-at", "address-decoder")),
        MarchAlgorithm(
            "march_c-",
            10,
            ("stuck-at", "address-decoder", "transition", "coupling"),
        ),
        MarchAlgorithm(
            "march_lr",
            14,
            (
                "stuck-at",
                "address-decoder",
                "transition",
                "coupling",
                "linked",
            ),
        ),
    ]
}


def memory_bist_cycles(
    capacity_bits: int,
    word_bits: int = 32,
    algorithm: str = "march_c-",
) -> int:
    """BIST cycles to test a memory with a March algorithm.

    One operation per word per March element; the BIST engine applies
    one operation per cycle.
    """
    if capacity_bits < 1:
        raise ValueError(f"capacity must be positive, got {capacity_bits}")
    if word_bits < 1:
        raise ValueError(f"word width must be positive, got {word_bits}")
    if algorithm not in MARCH_ALGORITHMS:
        raise KeyError(
            f"unknown March algorithm {algorithm!r}; known: "
            f"{', '.join(MARCH_ALGORITHMS)}"
        )
    words = math.ceil(capacity_bits / word_bits)
    return words * MARCH_ALGORITHMS[algorithm].operations_per_cell


def memory_bist_time_ms(
    capacity_mb: float,
    clock_mhz: float = 100.0,
    algorithm: str = "march_c-",
) -> float:
    """Wall-clock memory BIST time."""
    bits = int(capacity_mb * 8 * 1024 * 1024)
    cycles = memory_bist_cycles(bits, algorithm=algorithm)
    return cycles / (clock_mhz * 1e3)


def patterns_for_coverage(
    target: float,
    random_resistance: float = 0.002,
    ceiling: float = 0.99,
) -> int:
    """Patterns needed to reach *target* single-stuck-at coverage.

    Inverts ``coverage = ceiling * (1 - exp(-random_resistance *
    patterns))``, coverage's exponential approach to *ceiling*.
    """
    if not 0.0 < target < ceiling:
        raise ValueError(
            f"target must be in (0, ceiling={ceiling}), got {target}"
        )
    return math.ceil(-math.log(1.0 - target / ceiling) / random_resistance)
