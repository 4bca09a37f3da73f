"""MP-SoC platform layer.

Builds the paper's Figure-2 "Field-Programmable Processor Array" (FPPA):
an array of (multithreaded) embedded processors, a network-on-chip,
embedded memory, an eFPGA tile, hardwired IP and communication I/O —
plus the StepNP networking instance used for the IPv4 experiments.
"""
