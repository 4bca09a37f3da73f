"""On-chip variation.

Section 4 of the paper predicts that deep-submicron effects
(electromigration, voltage drop, on-chip variation) "will lead to
statistical design, self-repair and various forms of redundancy".
:func:`gate_sigma_fraction` is the per-gate random delay spread at a
node; the design-productivity model (:mod:`repro.economics.productivity`)
takes its deep-submicron drag from it.
"""

from __future__ import annotations

from repro.technology.node import ProcessNode


#: Per-gate random sigma as a fraction of nominal delay, by rough node era.
#: Variation worsens as devices shrink (fewer dopant atoms, litho limits).
def gate_sigma_fraction(process: ProcessNode) -> float:
    """Random per-gate delay sigma / nominal, growing as features shrink."""
    # ~4% at 180nm rising to ~12% at 45nm, linear in 1/feature.
    return min(0.20, 0.04 * (180.0 / process.feature_nm) ** 0.75)
