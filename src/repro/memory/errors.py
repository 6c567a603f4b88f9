"""Exceptions raised by the memory substrate."""

from __future__ import annotations


class MemoryModelError(RuntimeError):
    """Base class for memory-model misuse."""


class AllocationError(MemoryModelError):
    """Out of simulated memory, double free, or bad free address."""


class PinLimitError(MemoryModelError):
    """A pin request exceeded the platform's registered-memory limits
    (total DMAable bytes, GM ~1 GB on MareNostrum)."""

