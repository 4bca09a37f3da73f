"""FlexWare-style retargetable embedded-software tools.

Section 8 of the paper cites "the development of the 'FlexWare'
high-performance embedded software development tools, which is quickly
retargetable to a range of domain-specific processors" [Paulin &
Santana, IEEE D&T 2002].  This package reproduces the core of such a
flow:

* :mod:`repro.flexware.ir` — a small three-address intermediate
  representation with a reference evaluator;
* :mod:`repro.flexware.codegen` — a code generator to the
  :mod:`repro.processors.risc` ISS (linear-scan register allocation
  with spilling), validated by executing the generated assembly;
* :mod:`repro.flexware.targets` — retargeting cost models: the same IR
  costed on a plain RISC, a MAC-fusing DSP, and an ASIP with custom
  instructions — the productivity-vs-efficiency spectrum of Figure 1
  driven from one source program.
"""
