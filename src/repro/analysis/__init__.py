"""Experiment regeneration.

One function per experiment (E1-E18 in DESIGN.md), each returning the
rows/series the paper's claim corresponds to.  Each is registered as
scenario ``E1``-``E18`` for ``repro run``; ``repro.analysis.report``
renders them as text tables.
"""

from repro.analysis.experiments import (
    e01_mask_nre,
    e02_mask_breakeven,
    e03_design_breakeven,
    e04_risc_equivalents,
    e05_alternatives,
    e06_productivity,
    e07_hw_sw_growth,
    e08_figure1,
    e09_wire_delay,
    e10_noc_topologies,
    e11_multithreading,
    e12_efpga_share,
    e13_fppa_composition,
    e14_ipv4_stepnp,
    e15_mapping,
    e16_low_power,
    e17_memory_tradeoff,
    e18_npse_vs_cam,
    ALL_EXPERIMENTS,
)
from repro.analysis.report import format_table, render_experiment

__all__ = [
    "ALL_EXPERIMENTS",
    "e01_mask_nre",
    "e02_mask_breakeven",
    "e03_design_breakeven",
    "e04_risc_equivalents",
    "e05_alternatives",
    "e06_productivity",
    "e07_hw_sw_growth",
    "e08_figure1",
    "e09_wire_delay",
    "e10_noc_topologies",
    "e11_multithreading",
    "e12_efpga_share",
    "e13_fppa_composition",
    "e14_ipv4_stepnp",
    "e15_mapping",
    "e16_low_power",
    "e17_memory_tradeoff",
    "e18_npse_vs_cam",
    "format_table",
    "render_experiment",
]
