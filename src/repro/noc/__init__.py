"""Network-on-chip simulator.

Section 6.1 of the paper advocates networks-on-chip as the MP-SoC
interconnect and notes that "there is still much remaining work to be
done to characterize the various topologies — ranging from bus, ring,
tree to full-crossbar — and their effectiveness for different
application domains".  This package does that characterization:

* :mod:`repro.noc.topology` — builders for bus, ring, mesh, torus,
  binary tree, SPIN-style fat tree, full crossbar and star topologies;
* :mod:`repro.noc.routing` — deterministic minimal routing tables;
* :mod:`repro.noc.network` — the event-driven cut-through network model
  with per-link serialization (contention and saturation are emergent);
* :mod:`repro.noc.traffic` — synthetic traffic patterns (uniform,
  transpose, bit-complement, hotspot, neighbour);
* :mod:`repro.noc.metrics` — latency/throughput measurement;
* :mod:`repro.noc.flow` — the batched flow-level (analytic) mode:
  demand matrices pushed through the shared routing tables, producing
  the same metrics as the event model without per-hop events;
* :mod:`repro.noc.ocp` — an OCP-IP-style request/response socket layer
  used by the processor and DSOC runtimes.
"""
