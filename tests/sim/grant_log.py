"""A test-side record of how long each :class:`Resource` grant waited.

The product's resources keep only scheduling state; a run's queueing
is read off the flight recorder's ``queue`` phase.  Tests that pin
grant counts and waits swap a :class:`GrantLog` in for the resource
they watch.  A process waits by yielding the resource, and the core
calls whatever ``_join`` it finds, so the swap needs nothing from the
product.
"""

from repro.sim import Resource


class GrantLog(Resource):
    """A ``Resource`` that records the wait of every grant, in grant
    order: 0.0 for a slot taken at once (a free ``yield res`` in
    ``_join``, or ``acquire_now``), the time spent in the FIFO for one
    that ``release`` passed on."""

    __slots__ = ("waits", "_queued_at")

    def __init__(self, sim, capacity=1, name="resource"):
        super().__init__(sim, capacity, name)
        self.waits = []
        self._queued_at = {}

    @classmethod
    def like(cls, res):
        """An idle log with ``res``'s simulator, capacity and name, to
        install in its place before anything uses it."""
        return cls(res.sim, res.capacity, res.name)

    @property
    def acquisitions(self):
        return len(self.waits)

    @property
    def wait_total(self):
        return sum(self.waits)

    @property
    def wait_max(self):
        return max(self.waits, default=0.0)

    def _granted(self, granted):
        if granted:
            self.waits.append(0.0)
        return granted

    def acquire_now(self):
        return self._granted(super().acquire_now())

    def _join(self, proc):
        queued = len(self._waiters)
        super()._join(proc)
        if self._granted(len(self._waiters) == queued):
            return
        self._queued_at[proc._token] = self.sim.now

    def release(self):
        # The grant release() is about to make: its oldest waiter.
        if self._waiters:
            token = self._waiters[0]
            self.waits.append(self.sim.now - self._queued_at.pop(token))
        super().release()
