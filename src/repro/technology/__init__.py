"""Semiconductor technology scaling models.

This package encodes the paper's "semiconductor technology & basic IP"
abstraction level (Section 3, level 4): a database of process nodes from
0.35 µm down to 45 nm, Moore's-law growth rates, global-wire delay
models (the source of the paper's "6 to 10 clock cycles to cross a 50 nm
die" claim), power models including the multi-Vt / back-bias / voltage
scaling techniques of Section 4, per-gate variation, and
defect-limited yield and die cost.

The ST-proprietary process data the authors used is unavailable, so the
constants here are calibrated to the public ITRS-era trends the paper
itself cites; each experiment checks the model against the paper's
figures (see EXPERIMENTS.md).
"""
