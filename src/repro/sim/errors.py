"""Exception types raised by the simulation kernel."""

from __future__ import annotations


class SimulationError(RuntimeError):
    """Misuse of the kernel API (double trigger, yield of a non-event,
    releasing an idle resource, ...)."""
