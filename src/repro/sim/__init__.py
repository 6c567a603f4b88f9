"""Discrete-event simulation kernel.

A minimal, dependency-free event-driven simulator in the style of
SimPy: a :class:`~repro.sim.simulator.Simulator` owns a virtual clock
(microseconds, float) and a binary-heap event queue; concurrent
activities are :class:`~repro.sim.process.Process` objects wrapping
Python generators that ``yield`` a delay (a number of microseconds), a
:class:`~repro.sim.resource.Resource` to take a slot of, or an
:class:`~repro.sim.event.Event` instance to wait on.

Everything above this package (memory, network, runtime) is expressed
in terms of these primitives; the kernel knows nothing about PGAS.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def hello():
...     yield 5.0
...     return sim.now
>>> p = sim.process(hello())
>>> sim.run()
>>> p.value
5.0
"""

from repro.sim.errors import SimulationError, ProcessKilled
from repro.sim.event import Event, Timeout, AllOf
from repro.sim.process import Process
from repro.sim.resource import Resource
from repro.sim.simulator import Simulator

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "Process",
    "Resource",
    "SimulationError",
    "ProcessKilled",
]
