"""Break-even volume analysis.

Reproduces the paper's Section 1 arithmetic: "for a chip sold at a price
of $5, and a profit margin of 20%, this implies selling over one million
chips simply to pay for the mask set NRE", and with design NRE of
$10M-$100M, "volumes of 10 to 100 million chips to break even".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.economics.nre import design_nre_usd, mask_nre_usd
from repro.technology.node import ProcessNode, node


def profit_per_unit(price_usd: float, margin: float) -> float:
    """Gross profit per chip at a selling price and margin fraction."""
    if price_usd <= 0:
        raise ValueError(f"price must be positive, got {price_usd}")
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must be in (0,1], got {margin}")
    return price_usd * margin


def required_volume_for_nre(
    nre_usd: float,
    price_usd: float,
    margin: float,
) -> int:
    """Units that must be sold so cumulative profit covers the NRE."""
    if nre_usd < 0:
        raise ValueError(f"negative NRE {nre_usd}")
    per_unit = profit_per_unit(price_usd, margin)
    return math.ceil(nre_usd / per_unit)


@dataclass(frozen=True)
class BreakEven:
    """Full break-even breakdown for one product scenario."""

    process_name: str
    price_usd: float
    margin: float
    mask_nre: float
    design_nre: float
    mask_only_volume: int
    total_volume: int

    @classmethod
    def analyze(
        cls,
        process: ProcessNode | str,
        price_usd: float = 5.0,
        margin: float = 0.20,
        transistors: float = 100e6,
        reuse_fraction: float = 0.5,
    ) -> "BreakEven":
        if isinstance(process, str):
            process = node(process)
        mask = mask_nre_usd(process)
        design = design_nre_usd(process, transistors, reuse_fraction)
        return cls(
            process_name=process.name,
            price_usd=price_usd,
            margin=margin,
            mask_nre=mask,
            design_nre=design,
            mask_only_volume=required_volume_for_nre(mask, price_usd, margin),
            total_volume=required_volume_for_nre(mask + design, price_usd, margin),
        )

    def as_row(self) -> dict[str, float]:
        """Flat dict for tabular reporting."""
        return {
            "node": self.process_name,
            "price_usd": self.price_usd,
            "margin": self.margin,
            "mask_nre_usd": self.mask_nre,
            "design_nre_usd": self.design_nre,
            "mask_only_volume": self.mask_only_volume,
            "total_volume": self.total_volume,
        }


def platform_amortization(
    total_nre: float,
    variants: int,
    derivative_cost_fraction: float = 0.15,
) -> dict[str, float]:
    """NRE per product when a platform is reused across *variants*.

    The paper's core economic argument for platforms: "a SoC design
    platform needs to be amortized over many variants and generations of
    a product family".  Each derivative costs only a fraction of the
    platform NRE.
    """
    if variants < 1:
        raise ValueError(f"need at least one variant, got {variants}")
    if not 0.0 <= derivative_cost_fraction <= 1.0:
        raise ValueError(
            f"derivative cost fraction must be in [0,1], got "
            f"{derivative_cost_fraction}"
        )
    derivatives = variants - 1
    total = total_nre * (1.0 + derivatives * derivative_cost_fraction)
    return {
        "total_nre": total,
        "nre_per_product": total / variants,
        "saving_vs_independent": 1.0 - total / (total_nre * variants),
    }
