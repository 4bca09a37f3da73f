"""Heterogeneous processing elements.

Section 6.2 of the paper: "MP-SoC platforms will include ten to
hundreds of embedded processors ... in a wide diversity, from
general-purpose RISC to specialized application-specific instruction-set
processors (ASIP), with different trade-offs in time-to-market versus
product differentiation (power, performance, cost), as depicted in
Figure 1."

* :mod:`repro.processors.classes` — the Figure-1 spectrum as data;
* :mod:`repro.processors.multithread` — the hardware-multithreaded PE
  ("separate register banks for different threads, with hardware units
  that schedule threads and swap them in one cycle");
* :mod:`repro.processors.risc` — a small 32-bit RISC ISS with assembler;
* :mod:`repro.processors.dsp` — a kernel-level model of a specialized
  processor;
* :mod:`repro.processors.efpga` — embedded FPGA fabric macro-model;
* :mod:`repro.processors.hwip` — hardwired standard-function IP;
* :mod:`repro.processors.ioblocks` — the standard I/O families.
"""
