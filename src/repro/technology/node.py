"""Process-node database.

Each :class:`ProcessNode` bundles the per-node constants the rest of the
library consumes: logic density, typical SoC clock, supply voltage,
mask-set cost, wafer cost, defect density, and leakage characteristics.

Values follow the public ITRS-era trends the paper cites: mask-set NRE
multiplied by ~10 over three generations and exceeding $1M at 90 nm
(Section 1), logic density roughly doubling per node, and supply voltage
descending from 3.3 V at 0.35 µm toward sub-1 V at the nanometer nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ProcessNode:
    """Constants for one CMOS logic process generation.

    Attributes
    ----------
    name:
        Conventional node label, e.g. ``"90nm"``.
    feature_nm:
        Drawn feature size in nanometres.
    year:
        Approximate year of volume production.
    density_mtx_per_mm2:
        Logic transistor density in millions of transistors per mm^2.
    clock_ghz:
        Typical high-volume SoC clock frequency.
    vdd:
        Nominal supply voltage (V).
    mask_set_cost_usd:
        Full mask-set NRE in dollars.
    wafer_cost_usd:
        Processed 200/300 mm wafer cost in dollars.
    wafer_diameter_mm:
        Wafer diameter.
    defect_density_per_cm2:
        Random defect density D0 used by the yield model.
    metal_layers:
        Typical metal stack depth.
    gate_cap_ff_per_um:
        Gate capacitance per micron of transistor width.
    leakage_na_per_um:
        Nominal-Vt subthreshold leakage per micron of width at 25C.
    """

    name: str
    feature_nm: float
    year: int
    density_mtx_per_mm2: float
    clock_ghz: float
    vdd: float
    mask_set_cost_usd: float
    wafer_cost_usd: float
    wafer_diameter_mm: float
    defect_density_per_cm2: float
    metal_layers: int
    gate_cap_ff_per_um: float
    leakage_na_per_um: float
    extras: dict = field(default_factory=dict, compare=False)

    def transistors_for_area(self, area_mm2: float) -> float:
        """Logic transistors that fit in *area_mm2* of silicon."""
        return self.density_mtx_per_mm2 * 1e6 * area_mm2


# One generation ~= 0.7x linear shrink ~= 2x density.  Mask cost grows
# ~2.1-2.2x per generation so that three generations multiply it by ~10,
# matching the paper's Section 1 claim, and the 90 nm entry exceeds $1M.
NODES: dict[str, ProcessNode] = {
    n.name: n
    for n in [
        ProcessNode(
            name="350nm", feature_nm=350, year=1995,
            density_mtx_per_mm2=0.09, clock_ghz=0.20, vdd=3.3,
            mask_set_cost_usd=48_000, wafer_cost_usd=1_100,
            wafer_diameter_mm=200, defect_density_per_cm2=0.60,
            metal_layers=4, gate_cap_ff_per_um=1.60, leakage_na_per_um=0.02,
        ),
        ProcessNode(
            name="250nm", feature_nm=250, year=1997,
            density_mtx_per_mm2=0.18, clock_ghz=0.35, vdd=2.5,
            mask_set_cost_usd=100_000, wafer_cost_usd=1_400,
            wafer_diameter_mm=200, defect_density_per_cm2=0.50,
            metal_layers=5, gate_cap_ff_per_um=1.45, leakage_na_per_um=0.06,
        ),
        ProcessNode(
            name="180nm", feature_nm=180, year=1999,
            density_mtx_per_mm2=0.36, clock_ghz=0.60, vdd=1.8,
            mask_set_cost_usd=210_000, wafer_cost_usd=1_800,
            wafer_diameter_mm=200, defect_density_per_cm2=0.40,
            metal_layers=6, gate_cap_ff_per_um=1.30, leakage_na_per_um=0.20,
        ),
        ProcessNode(
            name="130nm", feature_nm=130, year=2001,
            density_mtx_per_mm2=0.72, clock_ghz=1.00, vdd=1.2,
            mask_set_cost_usd=480_000, wafer_cost_usd=2_500,
            wafer_diameter_mm=200, defect_density_per_cm2=0.35,
            metal_layers=7, gate_cap_ff_per_um=1.15, leakage_na_per_um=1.0,
        ),
        ProcessNode(
            name="90nm", feature_nm=90, year=2003,
            density_mtx_per_mm2=1.45, clock_ghz=1.80, vdd=1.0,
            mask_set_cost_usd=1_050_000, wafer_cost_usd=3_200,
            wafer_diameter_mm=300, defect_density_per_cm2=0.30,
            metal_layers=8, gate_cap_ff_per_um=1.00, leakage_na_per_um=5.0,
        ),
        ProcessNode(
            name="65nm", feature_nm=65, year=2005,
            density_mtx_per_mm2=2.90, clock_ghz=2.80, vdd=0.9,
            mask_set_cost_usd=2_200_000, wafer_cost_usd=4_000,
            wafer_diameter_mm=300, defect_density_per_cm2=0.28,
            metal_layers=9, gate_cap_ff_per_um=0.85, leakage_na_per_um=15.0,
        ),
        ProcessNode(
            name="50nm", feature_nm=50, year=2007,
            density_mtx_per_mm2=5.20, clock_ghz=4.50, vdd=0.8,
            mask_set_cost_usd=4_500_000, wafer_cost_usd=4_800,
            wafer_diameter_mm=300, defect_density_per_cm2=0.26,
            metal_layers=10, gate_cap_ff_per_um=0.72, leakage_na_per_um=40.0,
        ),
        ProcessNode(
            name="45nm", feature_nm=45, year=2008,
            density_mtx_per_mm2=6.10, clock_ghz=5.00, vdd=0.8,
            mask_set_cost_usd=5_800_000, wafer_cost_usd=5_200,
            wafer_diameter_mm=300, defect_density_per_cm2=0.25,
            metal_layers=10, gate_cap_ff_per_um=0.68, leakage_na_per_um=55.0,
        ),
    ]
}


def node(name: str) -> ProcessNode:
    """Look up a node by label (e.g. ``"90nm"``).

    Raises :class:`KeyError` with the available labels on a miss.
    """
    try:
        return NODES[name]
    except KeyError:
        raise KeyError(
            f"unknown process node {name!r}; known: {', '.join(NODES)}"
        ) from None


def node_names() -> list[str]:
    """Node labels ordered from oldest (largest) to newest (smallest)."""
    return sorted(NODES, key=lambda n: -NODES[n].feature_nm)


def nodes_between(start: str, end: str) -> list[ProcessNode]:
    """Inclusive list of nodes from *start* down to *end* feature size."""
    lo = node(end).feature_nm
    hi = node(start).feature_nm
    if lo > hi:
        raise ValueError(f"start node {start!r} is smaller than end {end!r}")
    ordered = sorted(NODES.values(), key=lambda n: -n.feature_nm)
    return [n for n in ordered if lo <= n.feature_nm <= hi]
