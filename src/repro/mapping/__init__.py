"""MultiFlex-style application-to-platform mapping tools.

Section 5.3 of the paper calls for tools that "explore this mapping
process, and assist and automate optimization where possible" — closing
the "abstraction grand canyon" between system specification and MP-SoC
platforms.  This package provides:

* :mod:`repro.mapping.taskgraph` — application task graphs with
  per-processor-class affinities and communication volumes;
* :mod:`repro.mapping.mapper` — constructive heuristics (round-robin,
  greedy load balance, communication-aware greedy);
* :mod:`repro.mapping.anneal` — a simulated-annealing refinement pass;
* :mod:`repro.mapping.evaluate` — the analytic cost model (makespan via
  list scheduling + NoC-distance-weighted communication);
* :mod:`repro.mapping.evaluator` — precomputed, incrementally-updatable
  evaluation (the annealer/DSE hot path);
* :mod:`repro.mapping.dse` — design-space exploration sweeps with
  Pareto extraction.
"""
