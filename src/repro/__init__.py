"""repro: a reproduction of "System-on-Chip Beyond the Nanometer Wall".

Magarshack & Paulin, DAC 2003 — the paper predicts two paradigm shifts
for nanometer-era SoC design: (1) division into four orthogonal
abstraction levels, and (2) domain-specific software-programmable
multi-processor platforms (large heterogeneous processor arrays +
network-on-chip + embedded FPGA), programmed through a high-level
distributed-object model with automated application-to-platform
mapping.

This library builds every system the paper describes:

* :mod:`repro.sim` — discrete-event simulation kernel;
* :mod:`repro.technology` — process scaling, wires, power, variation,
  yield;
* :mod:`repro.economics` — NRE, break-even, implementation
  alternatives, productivity, complexity growth;
* :mod:`repro.noc` — packet-granular network-on-chip simulator (bus,
  ring, tree, mesh, torus, SPIN fat tree, crossbar) with OCP sockets;
* :mod:`repro.processors` — the Figure-1 processor spectrum, hardware
  multithreading, a RISC ISS, DSP/eFPGA/hardwired-IP models, standard
  I/O;
* :mod:`repro.memory` — eSRAM/eDRAM/eFlash/external memory tradeoffs;
* :mod:`repro.platform` — the FPPA platform (Figure 2) and StepNP;
* :mod:`repro.dsoc` — the DSOC distributed-object programming model;
* :mod:`repro.mapping` — MultiFlex-style mapping and design-space
  exploration;
* :mod:`repro.apps` — IPv4 fast path, NPSE search engine, traffic
  generation, multimedia and wireless workloads;
* :mod:`repro.analysis` — one function per reproduced experiment
  (E1-E18, see EXPERIMENTS.md).

Packages re-export nothing: import each name from the module that
defines it.

Quickstart
----------
>>> from repro.apps.stepnp_ipv4 import run_ipv4_on_stepnp
>>> result = run_ipv4_on_stepnp(num_pes=16, threads_per_pe=8,
...                             packets=500, extra_table_latency=100)
>>> result.line_rate_sustained
True
"""

__version__ = "1.0.0"
