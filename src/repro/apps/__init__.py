"""Application workloads.

The paper's driver applications: the IPv4 fast path that Section 7.2
maps onto StepNP, the SRAM-based packet search engine (NPSE, Section 8)
with its CAM baseline, line-rate traffic generation, and the consumer
multimedia and wireless-LAN workloads Sections 6 and 8 motivate.
"""
