"""Design-for-test infrastructure.

Section 4 of the paper: "DFT has to evolve together with SoC complexity.
The IEEE 1500 class of on-chip test bus is an example of this trend.
In addition, BIST will need to support all sorts of IP's: not only
memories, but also digital logic, analog and RF."

* :mod:`repro.dft.wrapper` — IEEE 1500-style core test wrappers and the
  test access mechanism (TAM) arithmetic;
* :mod:`repro.dft.schedule` — SoC-level test scheduling under TAM-width
  and power constraints;
* :mod:`repro.dft.bist` — memory BIST (March algorithms) and the
  pattern count logic BIST needs for a coverage target.
"""
