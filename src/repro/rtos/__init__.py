"""Embedded RTOS scheduling cost.

Section 5.2 of the paper: "In the O/S domain, the main additional need
is for ultra-lightweight versions of these O/S's, which supply a level
of services tuned to the application domain.  In some cases, part of
the O/S services will need to be performed in hardware."

* :mod:`repro.rtos.schedulability` — exact rate-monotonic response-time
  analysis with a context-switch cost per job (1 cycle models a
  hardware scheduler, tens a software one — the quantitative content
  of "performed in hardware"; ablation A7).
"""
