"""SoC economics models.

Section 1 of the paper builds its case on manufacturing and design
non-recurring expenses (NRE): mask sets exceeding $1M at 90 nm (x10 in
three generations), design NRE of $10M-$100M, and the resulting
break-even volumes that "preclude the development of specialized ASICs"
for small and medium players.  This package models those economics:

* :mod:`repro.economics.nre` — mask and design NRE per node;
* :mod:`repro.economics.breakeven` — volume break-even analysis;
* :mod:`repro.economics.alternatives` — the NRE-flexibility continuum
  (ASIC, structured array, FPGA, SiP, MP-SoC platform);
* :mod:`repro.economics.productivity` — design productivity trends and
  the sub-90 nm decline the paper predicts;
* :mod:`repro.economics.complexity` — hardware vs. embedded-software
  complexity growth (56% vs. 140% per year).
"""
