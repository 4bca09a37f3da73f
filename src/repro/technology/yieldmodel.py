"""Defect-limited die yield and die cost.

Supports the manufacturing-economics experiments (E1-E3, E5): die cost
is wafer cost divided by good dice, and good dice follow the negative
binomial yield model.
"""

from __future__ import annotations

import math

from repro.technology.node import ProcessNode


def negative_binomial_yield(
    die_area_mm2: float,
    defect_density_per_cm2: float,
    clustering_alpha: float = 2.0,
) -> float:
    """Fraction of dice free of killer defects.

    The industry-standard negative binomial model::

        Y = (1 + A * D0 / alpha) ** -alpha

    *clustering_alpha* ~ 2 reflects typical defect clustering.
    """
    if die_area_mm2 <= 0:
        raise ValueError(f"non-positive die area {die_area_mm2}")
    if defect_density_per_cm2 < 0:
        raise ValueError(f"negative defect density {defect_density_per_cm2}")
    area_cm2 = die_area_mm2 / 100.0
    return (1.0 + area_cm2 * defect_density_per_cm2 / clustering_alpha) ** (
        -clustering_alpha
    )


def dice_per_wafer(die_area_mm2: float, wafer_diameter_mm: float) -> int:
    """Gross dice per wafer with an edge-loss correction."""
    if die_area_mm2 <= 0:
        raise ValueError(f"non-positive die area {die_area_mm2}")
    radius = wafer_diameter_mm / 2.0
    wafer_area = math.pi * radius ** 2
    edge = math.pi * wafer_diameter_mm * math.sqrt(die_area_mm2)
    gross = (wafer_area - edge / math.sqrt(2.0)) / die_area_mm2
    return max(0, int(gross))


def die_cost_usd(
    process: ProcessNode,
    die_area_mm2: float,
    clustering_alpha: float = 2.0,
) -> float:
    """Manufacturing cost of one *good* die (excludes NRE, test, package)."""
    gross = dice_per_wafer(die_area_mm2, process.wafer_diameter_mm)
    if gross == 0:
        raise ValueError(
            f"die of {die_area_mm2} mm^2 does not fit a "
            f"{process.wafer_diameter_mm} mm wafer"
        )
    y = negative_binomial_yield(
        die_area_mm2, process.defect_density_per_cm2, clustering_alpha
    )
    good = gross * y
    if good < 1:
        raise ValueError("yield too low: less than one good die per wafer")
    return process.wafer_cost_usd / good
