"""A test-side record of what a pinned address table did.

The product's table keeps only its state (regions and their owners,
the pin-down cache's ranges, the per-handle entries); a run's
registration cost is read off the flight recorder's ``PIN``/``UNPIN``
events.  Tests that pin counts of registrations, deregistrations,
lazy evictions or pin-down cache hits swap a :class:`PinLog` in for
the table they watch, before anything uses it::

    node.pins = PinLog.like(node.pins)

The runtime's ``pinned_table(node_id)`` and the transport read
``node.pins``, so the swap needs nothing from the product.
"""

from repro.core import PinnedAddressTable


class PinLog(PinnedAddressTable):
    """A table that counts: ``pin_calls`` regions registered,
    ``unpin_calls`` regions deregistered, ``registers`` object
    registrations (the full pin path), ``lazy_calls``/``misses``/
    ``evictions`` of the pin-down cache."""

    __slots__ = ("pin_calls", "unpin_calls", "registers", "lazy_calls",
                 "misses", "evictions")

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.pin_calls = self.unpin_calls = self.registers = 0
        self.lazy_calls = self.misses = self.evictions = 0

    @classmethod
    def like(cls, table):
        """An empty log with ``table``'s node, limits and recorder."""
        log = cls(table.node_id, table.cost_model, table.page_size,
                  table.max_region_bytes, table.max_total_bytes,
                  table.capacity_bytes)
        log.events, log.clock = table.events, table.clock
        return log

    @property
    def hits(self):
        return self.lazy_calls - self.misses

    def register(self, handle, vaddr, size):
        self.registers += 1
        return super().register(handle, vaddr, size)

    def register_lazy(self, vaddr, size):
        self.lazy_calls += 1
        return super().register_lazy(vaddr, size)

    def _lazy_miss(self, key):
        self.misses += 1
        return super()._lazy_miss(key)

    def _evict(self):
        self.evictions += 1
        return super()._evict()

    def _pin(self, vaddr, size, owner):
        before = len(self)
        out = super()._pin(vaddr, size, owner)
        self.pin_calls += len(self) - before
        return out

    def _drop(self, region):
        self.unpin_calls += 1
        return super()._drop(region)


class Forgetful(dict):
    """A ``handles`` map whose entries are never found: installed as
    ``table.handles``, every AM miss takes the full pin path."""

    def get(self, key, default=None):
        return default
