"""DSP processor model.

DSPs occupy the second position on the Figure-1 spectrum: programmable,
but with MAC-oriented datapaths that execute signal-processing kernels
several times faster than a GP RISC.  The model is kernel-level: each
:class:`DspKernel` has a cycle formula on a reference DSP, and
:class:`DspModel` scales it by issue width and MAC count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict


@dataclass(frozen=True)
class DspKernel:
    """A signal-processing kernel with an analytic cycle count.

    ``cycles(n)`` gives single-MAC reference cycles for problem size n.
    ``parallel_fraction`` bounds the speedup multiple MACs can extract
    (Amdahl on the kernel's inner loop).
    """

    name: str
    cycles: Callable[[int], float]
    parallel_fraction: float = 0.95

    def reference_cycles(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"kernel size must be >=1, got {n}")
        return self.cycles(n)


#: Standard kernels with textbook cycle formulas (single-MAC reference).
STANDARD_KERNELS: Dict[str, DspKernel] = {
    k.name: k
    for k in [
        DspKernel("fir", lambda n: 64.0 * n, parallel_fraction=0.98),
        DspKernel("iir_biquad", lambda n: 10.0 * n, parallel_fraction=0.90),
        DspKernel(
            "fft",
            lambda n: 5.0 * n * max(1.0, math.log2(n)),
            parallel_fraction=0.95,
        ),
        DspKernel("dot_product", lambda n: float(n), parallel_fraction=0.99),
        DspKernel("viterbi_acs", lambda n: 16.0 * n, parallel_fraction=0.92),
    ]
}


@dataclass(frozen=True)
class DspModel:
    """A DSP instance: MAC count, issue width, clock.

    ``kernel_cycles`` applies Amdahl's law over the MAC array;
    ``kernel_time_us`` converts to microseconds at the DSP clock.
    """

    name: str = "dsp"
    mac_units: int = 2
    issue_width: int = 2
    clock_mhz: float = 300.0
    overhead_cycles_per_call: float = 50.0

    def __post_init__(self) -> None:
        if self.mac_units < 1:
            raise ValueError(f"need >=1 MAC, got {self.mac_units}")
        if self.clock_mhz <= 0:
            raise ValueError(f"clock must be positive, got {self.clock_mhz}")

    def kernel_cycles(self, kernel: DspKernel, n: int) -> float:
        """Cycles to run *kernel* of size *n* on this DSP."""
        reference = kernel.reference_cycles(n)
        p = kernel.parallel_fraction
        speedup = 1.0 / ((1.0 - p) + p / self.mac_units)
        return self.overhead_cycles_per_call + reference / speedup

    def kernel_time_us(self, kernel: DspKernel, n: int) -> float:
        return self.kernel_cycles(kernel, n) / self.clock_mhz
