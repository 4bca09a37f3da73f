"""Transaction-level modeling (TLM).

Section 4 of the paper: "Transaction-level modeling (TLM) of mixed
H/W-S/W systems to anticipate the step when effective HW-SW
co-simulation is effective before RTL, reduce the time to develop
executable specifications of HW blocks and increase the simulation
speed [10].  Standardization of TLM approaches and API's is urgently
needed."

This package provides that layer in the TLM-2-style idiom: generic
payloads, blocking transport with timing annotation, loosely-timed
temporal decoupling with a quantum keeper, and an address-mapped bus.
:mod:`repro.tlm.compare` quantifies the paper's speed-vs-accuracy
argument by running the same traffic through the TLM bus and through
the cycle-approximate NoC.
"""
