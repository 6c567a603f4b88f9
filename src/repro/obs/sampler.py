"""Counter time-series sampling on the virtual clock.

Aggregate counters (hit rate, pinned bytes) say what happened over a
whole run; the sampler says *when*: address-cache occupancy, pinned
bytes, AM handler queue length and bulk-engine in-flight depth are
sampled at fixed simulated-time intervals, giving the time axis the
paper's Paraver screenshots have.

The sampler is an ordinary simulator process.  It re-arms only while
other events are pending, so it never keeps the simulation alive on
its own and never masks the runtime's deadlock detection (a drained
heap still means nothing more can happen).  Each sampling tick adds
exactly one simulator event — cost proportional to run length /
interval, and only when sampling was explicitly started.
"""

from __future__ import annotations

from typing import List, Tuple, TYPE_CHECKING

from repro.obs.events import COUNTER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime

#: One sample: (virtual time µs, node id (-1 = global), counter, value).
Sample = Tuple[float, int, str, float]


class CounterSampler:
    """Samples runtime gauges every ``interval_us`` of virtual time."""

    def __init__(self, runtime: "Runtime",
                 interval_us: float = 50.0) -> None:
        if interval_us <= 0:
            raise ValueError(
                f"interval_us must be > 0, got {interval_us}")
        self.rt = runtime
        self.interval_us = interval_us
        self.samples: List[Sample] = []
        self._started = False

    def start(self) -> None:
        """Arm the sampler (call before ``runtime.run()``)."""
        if self._started:
            return
        self._started = True
        # Subscribe to backlog transitions so AM queue depth between
        # poll ticks is captured too (the §4.6 pathology builds and
        # drains its backlog entirely inside one compute slice).
        for node in self.rt.cluster.nodes:
            node.progress.sampler = self
        self.rt.sim.process(self._run(), name="obs-sampler")

    def backlog_transition(self, node_id: int, depth: int) -> None:
        """One AM-queue enqueue/drain edge, pushed by the progress
        engine the moment it happens (not at the next tick)."""
        self.samples.append(
            (self.rt.sim.now, node_id, "am_queue", float(depth)))

    def _run(self):
        sim = self.rt.sim
        while True:
            self._sample_once()
            yield self.interval_us
            # When this tick was the only remaining event the program
            # is done: stop instead of keeping the clock running.
            if not sim.pending:
                self._sample_once()
                return

    def _sample_once(self) -> None:
        rt = self.rt
        t = rt.sim.now
        add = self.samples.append
        for node in rt.cluster.nodes:
            nid = node.id
            add((t, nid, "cache_entries",
                 float(len(rt.addr_cache(nid)))))
            add((t, nid, "pinned_bytes", float(node.pins.pinned_bytes)))
            queue = getattr(node.progress, "_waiters", None)
            add((t, nid, "am_queue",
                 float(len(queue)) if queue is not None else 0.0))
        add((t, -1, "bulk_inflight", float(rt.bulk.live_messages)))
        log = rt.events
        if log.enabled:
            log.emit(t, COUNTER, node=-1,
                     bulk_inflight=rt.bulk.live_messages)

    def __len__(self) -> int:
        return len(self.samples)
