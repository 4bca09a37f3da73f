"""Discrete-event simulation kernel.

This package is the substrate for every cycle-level model in the
reproduction: the network-on-chip simulator, the multithreaded processor
models, and the StepNP/FPPA platform simulations are all built on it.

The kernel follows the classic process-interaction style: model code is
written as Python generator functions that ``yield`` simulation commands
(:class:`~repro.sim.core.Timeout`, :class:`~repro.sim.core.Event`,
resource requests).  The :class:`~repro.sim.core.Simulator` owns the
event heap and advances virtual time.

Example
-------
>>> from repro.sim.core import Simulator, Timeout
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
