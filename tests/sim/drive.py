"""Test-side drivers for the event core, which keeps none of its own:
a process waits by yielding a delay or an event, and ``Simulator.run()``
drains the queue."""

from repro.sim.errors import SimulationError


def timer(sim, delay, value=None):
    """An event that succeeds with ``value`` ``delay`` from now: a timer
    a test subscribes to or reads after the run."""
    return sim.event().succeed(value, delay)


def finish(sim, gen, name=""):
    """Spawn ``gen``, drain ``sim`` and return the process's value (or
    raise its exception); a process still blocked is a deadlock."""
    proc = sim.process(gen, name=name)
    sim.run()
    if not proc.triggered:
        raise SimulationError(f"deadlock: process {proc!r} never completed "
                              f"(queue drained at t={sim.now:.3f})")
    return proc.value
