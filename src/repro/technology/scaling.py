"""Moore's-law scaling trends.

The paper's Section 6 quotes the canonical figure of 56% per year growth
in transistor count (Moore's law as the SIA/ITRS stated it for SoC logic).
This module holds that rate and the embedded-software one; the
complexity-growth model (:mod:`repro.economics.complexity`, experiment
E7) compounds both.
"""

#: Annual growth rate of transistors per chip quoted by the paper (Sec. 6).
MOORE_TRANSISTOR_GROWTH = 0.56

#: Annual growth rate of embedded-software complexity quoted by the paper.
SOFTWARE_COMPLEXITY_GROWTH = 1.40
