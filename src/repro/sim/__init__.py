"""Discrete-event simulation kernel.

This package is the substrate for every cycle-level model in the
reproduction: the network-on-chip simulator, the multithreaded processor
models, and the StepNP/FPPA platform simulations are all built on it.

The kernel follows the classic process-interaction style: model code is
written as Python generator functions that ``yield`` simulation commands
(:class:`Timeout`, :class:`Event`, resource requests).  The
:class:`Simulator` owns the event heap and advances virtual time.

Example
-------
>>> from repro.sim import Simulator, Timeout
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield Timeout(5)
...     log.append(sim.now)
>>> _ = sim.spawn(proc(sim))
>>> sim.run()
>>> log
[5.0]
"""

from repro.sim.core import Event, Simulator, Timeout
from repro.sim.process import Process, ProcessKilled
from repro.sim.resources import Resource, Store
from repro.sim.stats import Sampler
from repro.sim.rng import RandomStreams

__all__ = [
    "Event",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "Resource",
    "Sampler",
    "Simulator",
    "Store",
    "Timeout",
]
