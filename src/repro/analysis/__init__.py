"""Experiment regeneration.

One function per experiment (E1-E18 in EXPERIMENTS.md), each returning
the rows/series the paper's claim corresponds to.  Each is registered as
scenario ``E1``-``E18`` for ``repro run``; ``repro.analysis.report``
renders them as text tables.
"""
