"""Non-recurring expense (NRE) models: mask sets and design effort.

Reproduces the Section 1 figures: mask-set NRE "multiplied by a factor
of ten in about three process technology generations, exceeding 1M$ for
current 90nm process"; design NRE "ranges from 10M$ to 100M$ for
today's complex 0.13 micron designs".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.technology.node import NODES, ProcessNode, node


def mask_nre_usd(process: ProcessNode | str) -> float:
    """Mask-set NRE in dollars for a node (label or object)."""
    if isinstance(process, str):
        process = node(process)
    return process.mask_set_cost_usd


def mask_nre_growth_per_generation(
    start: str = "350nm",
    end: str = "90nm",
) -> float:
    """Geometric-mean mask-NRE growth factor per generation.

    The paper's claim (x10 over three generations) corresponds to a
    per-generation factor of 10 ** (1/3) ~= 2.15.
    """
    ordered = sorted(NODES.values(), key=lambda n: -n.feature_nm)
    lo = node(end).feature_nm
    hi = node(start).feature_nm
    chain = [n for n in ordered if lo <= n.feature_nm <= hi]
    if len(chain) < 2:
        raise ValueError("need at least two nodes to compute growth")
    total = chain[-1].mask_set_cost_usd / chain[0].mask_set_cost_usd
    return total ** (1.0 / (len(chain) - 1))


@dataclass(frozen=True)
class DesignTeamModel:
    """Staffing cost model behind design NRE.

    Design NRE = transistors / productivity * loaded cost per man-year,
    plus EDA tooling, IP licensing and verification overheads expressed
    as multipliers on the staffing base.
    """

    loaded_cost_per_man_year_usd: float = 250_000.0
    verification_overhead: float = 1.0   # verification ~doubles effort
    eda_ip_overhead: float = 0.35        # tools + licensed IP

    def design_nre(self, transistors: float, productivity_tx_per_my: float) -> float:
        """Design NRE in dollars for a given design size and productivity."""
        if productivity_tx_per_my <= 0:
            raise ValueError("productivity must be positive")
        man_years = transistors / productivity_tx_per_my
        base = man_years * self.loaded_cost_per_man_year_usd
        return base * (1.0 + self.verification_overhead) * (
            1.0 + self.eda_ip_overhead
        )


def design_nre_usd(
    process: ProcessNode | str,
    transistors: float,
    reuse_fraction: float = 0.5,
    team: DesignTeamModel | None = None,
) -> float:
    """Design NRE for a chip of *transistors* at a node.

    *reuse_fraction* of the logic comes from reused IP and costs ~15% of
    new design; the rest is designed from scratch at the node's
    productivity (see :mod:`repro.economics.productivity`).

    Calibrated so a ~100M-transistor 130 nm SoC lands in the paper's
    $10M-$100M design-NRE band.
    """
    from repro.economics.productivity import design_productivity

    if isinstance(process, str):
        process = node(process)
    if not 0.0 <= reuse_fraction <= 1.0:
        raise ValueError(f"reuse fraction must be in [0,1], got {reuse_fraction}")
    team = team or DesignTeamModel()
    productivity = design_productivity(process)
    new_tx = transistors * (1.0 - reuse_fraction)
    reused_tx = transistors * reuse_fraction
    return team.design_nre(new_tx, productivity) + 0.15 * team.design_nre(
        reused_tx, productivity
    )


def mask_nre_series(labels: list[str] | None = None) -> list[tuple[str, float]]:
    """(node, mask NRE) series across the database, oldest first."""
    if labels is None:
        labels = sorted(NODES, key=lambda n: -NODES[n].feature_nm)
    return [(label, mask_nre_usd(label)) for label in labels]
