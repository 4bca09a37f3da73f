"""Moore's-law scaling trends.

The paper's Section 6 quotes the canonical figure of 56% per year growth
in transistor count (Moore's law as the SIA/ITRS stated it for SoC logic).
These helpers project transistor budgets and densities between years and
nodes, and underpin the E4 ("1000 RISC processors on a die") and E7
(hardware-vs-software complexity growth) experiments.
"""

from __future__ import annotations

import math

from repro.technology.node import NODES, node

#: Annual growth rate of transistors per chip quoted by the paper (Sec. 6).
MOORE_TRANSISTOR_GROWTH = 0.56

#: Annual growth rate of embedded-software complexity quoted by the paper.
SOFTWARE_COMPLEXITY_GROWTH = 1.40


def project_transistors(
    base_transistors: float,
    base_year: int,
    target_year: int,
    annual_growth: float = MOORE_TRANSISTOR_GROWTH,
) -> float:
    """Project a transistor budget forward (or backward) in time.

    Compound growth at *annual_growth* per year; the default reproduces
    the paper's 56%/year Moore's-law figure.
    """
    years = target_year - base_year
    return base_transistors * (1.0 + annual_growth) ** years


def density_at(node_name: str) -> float:
    """Logic density (transistors per mm^2) for a node label."""
    return node(node_name).density_mtx_per_mm2 * 1e6


def density_scaling_per_generation() -> float:
    """Geometric-mean density ratio between successive database nodes.

    Classic scaling predicts ~2x per generation; this checks what the
    database actually encodes.
    """
    ordered = sorted(NODES.values(), key=lambda n: -n.feature_nm)
    ratios = [
        ordered[i + 1].density_mtx_per_mm2 / ordered[i].density_mtx_per_mm2
        for i in range(len(ordered) - 1)
    ]
    log_sum = sum(math.log(r) for r in ratios)
    return math.exp(log_sum / len(ratios))


def transistor_budget(node_name: str, die_area_mm2: float) -> float:
    """Total logic transistors available on a die at the given node.

    The paper (Sec. 1) observes that a >100M transistor 0.13 um die holds
    "the logic of over one thousand 32 bit RISC processors".
    """
    return node(node_name).transistors_for_area(die_area_mm2)


def frequency_at(node_name: str) -> float:
    """Typical SoC clock (GHz) at a node."""
    return node(node_name).clock_ghz


def years_to_double(annual_growth: float) -> float:
    """Doubling time in years for a compound annual growth rate."""
    if annual_growth <= 0:
        raise ValueError(f"growth rate must be positive, got {annual_growth}")
    return math.log(2.0) / math.log(1.0 + annual_growth)
