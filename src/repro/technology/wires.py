"""Global-wire delay models.

The paper's Section 6.1 cites the prediction that "in 50 nm technologies
... the intra-chip propagation delay will be between six and ten clock
cycles" [Benini & De Micheli 2002].  This module models optimally
repeatered global wires whose absolute delay per millimetre *worsens*
with scaling while clock frequency rises, reproducing that trend (E9).

Model
-----
For an optimally repeatered wire the delay is linear in length with a
per-mm figure that grows as wires shrink (resistance rises faster than
capacitance falls).  We model::

    t_mm(node) = T180 * (180 / feature_nm) ** ALPHA      [ps/mm]

with ``T180 = 55 ps/mm`` and ``ALPHA = 0.5``, matching published
repeatered-wire trends (Ho, Mai & Horowitz, "The Future of Wires", 2001,
reports ~50-110 ps/mm over this range).  The distributed RC of an
unrepeatered wire sets the critical length past which repeaters pay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.technology.node import ProcessNode, node

#: Repeatered global-wire delay at the 180 nm reference node (ps/mm).
REPEATED_T180_PS_PER_MM = 55.0

#: Scaling exponent of repeatered delay with feature size.
REPEATED_ALPHA = 0.5

#: Distributed RC constant for unrepeatered wires at 180 nm (ps/mm^2).
UNREPEATED_RC_180_PS_PER_MM2 = 40.0

#: Unrepeatered RC grows roughly quadratically faster with shrink.
UNREPEATED_ALPHA = 1.6


def repeated_wire_delay_ps_per_mm(process: ProcessNode) -> float:
    """Delay of an optimally repeatered global wire, ps per mm."""
    return REPEATED_T180_PS_PER_MM * (180.0 / process.feature_nm) ** REPEATED_ALPHA


def critical_length_mm(process: ProcessNode) -> float:
    """Length above which repeater insertion beats a raw RC wire."""
    rc = UNREPEATED_RC_180_PS_PER_MM2 * (180.0 / process.feature_nm) ** UNREPEATED_ALPHA
    rep = repeated_wire_delay_ps_per_mm(process)
    # 0.5 * rc * L^2 == rep * L  =>  L = 2 * rep / rc
    return 2.0 * rep / rc


@dataclass(frozen=True)
class WireModel:
    """Convenience bundle of the wire figures for one node.

    >>> WireModel.for_node("50nm").cross_chip_cycles  # doctest: +SKIP
    7.0
    """

    process: ProcessNode
    die_edge_mm: float
    repeated_ps_per_mm: float
    cross_chip_ps: float
    cross_chip_cycles: float
    critical_length_mm: float

    @classmethod
    def for_node(cls, node_name: str, die_edge_mm: float = 15.0) -> "WireModel":
        process = node(node_name)
        per_mm = repeated_wire_delay_ps_per_mm(process)
        total_ps = per_mm * die_edge_mm
        return cls(
            process=process,
            die_edge_mm=die_edge_mm,
            repeated_ps_per_mm=per_mm,
            cross_chip_ps=total_ps,
            cross_chip_cycles=total_ps * process.clock_ghz / 1000.0,
            critical_length_mm=critical_length_mm(process),
        )

    def noc_hop_budget(self, hops: int, per_hop_router_cycles: float = 2.0) -> float:
        """Cycles for a NoC path of *hops* hops across the die.

        The wire span is split evenly among hops; each hop adds router
        pipeline cycles.  This is the "complex NoC could exhibit
        latencies many times larger" observation of Section 6.1.
        """
        if hops < 1:
            raise ValueError(f"need at least one hop, got {hops}")
        return self.cross_chip_cycles + hops * per_hop_router_cycles
