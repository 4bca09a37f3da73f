"""Design productivity trends.

Section 2 argues that "for 90nm technologies and beyond, the design
productivity (transistors designed per man-year) will actually decline
due to the new deep submicron effects".  We model productivity as a
reuse/tooling-driven improvement multiplied by a DSM drag term that
grows below 130 nm, producing the predicted peak-and-decline shape
(experiment E6).
"""

from __future__ import annotations

import math

from repro.technology.node import NODES, ProcessNode, node
from repro.technology.variation import gate_sigma_fraction

#: Transistors per man-year at the 350 nm reference node.
BASE_PRODUCTIVITY_TX_PER_MY = 300_000.0

#: Compound productivity improvement per year from tools/reuse (pre-DSM).
TOOL_IMPROVEMENT_PER_YEAR = 0.21

#: Reference year of the base productivity figure.
BASE_YEAR = 1995


def tool_productivity(process: ProcessNode) -> float:
    """Productivity from tool/reuse improvement alone (no DSM drag)."""
    years = process.year - BASE_YEAR
    return BASE_PRODUCTIVITY_TX_PER_MY * (1.0 + TOOL_IMPROVEMENT_PER_YEAR) ** years


def dsm_drag(process: ProcessNode) -> float:
    """Multiplicative productivity loss from deep-submicron effects.

    Signal integrity, OCV margining, power closure and DFT effort all
    scale with variation; we tie the drag to the node's gate-delay
    sigma so it is negligible at 250 nm and severe below 90 nm.
    """
    sigma = gate_sigma_fraction(process)
    # Calibrated so productivity peaks at 130 nm and declines from 90 nm
    # onward, matching the paper's Section 2 prediction.
    return math.exp(-((sigma / 0.048) ** 2) / 2.0)


def design_productivity(process: ProcessNode | str) -> float:
    """Transistors designed per man-year at a node (new logic, no reuse)."""
    if isinstance(process, str):
        process = node(process)
    return tool_productivity(process) * dsm_drag(process)


def productivity_series() -> list[tuple[str, float]]:
    """(node, productivity) across the database, oldest first."""
    ordered = sorted(NODES.values(), key=lambda n: -n.feature_nm)
    return [(n.name, design_productivity(n)) for n in ordered]


def productivity_peak_node() -> str:
    """Node label at which productivity peaks before the DSM decline."""
    series = productivity_series()
    return max(series, key=lambda pair: pair[1])[0]
