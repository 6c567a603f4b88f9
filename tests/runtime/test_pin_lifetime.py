"""An object stays pinned until it is freed (section 3.1), and the AM
handler's already-pinned re-check is exact.

The scenario: two GM nodes, a 48 KB pin-down cache and a one-entry
address cache, and one thread alternating 32 KB ``memget``s (so
rendezvous) of two arrays homed on node 1.  Each transfer caches its
target range in node 1's pin-down cache, which must evict on every
other access.
"""

from dataclasses import replace

import numpy as np

from repro.network import GM_MARENOSTRUM
from repro.obs import PIN, EventLog
from repro.runtime import Runtime, RuntimeConfig
from tests.core.pin_log import Forgetful, PinLog

KB = 1024


def small_cache_runtime(events=None, **kw):
    machine = replace(GM_MARENOSTRUM, transport=replace(
        GM_MARENOSTRUM.transport, reg_cache_bytes=48 * KB))
    return Runtime(RuntimeConfig(machine=machine, nthreads=2,
                                 threads_per_node=1, seed=1, events=events,
                                 **kw))


def run_alternating_memgets(n=5, events=None, table=None):
    rt = small_cache_runtime(events=events, cache_capacity=1)
    node = rt.cluster.node(1)
    if table is not None:
        node.pins = table(node.pins)
    arrays = []

    def kernel(th):
        a = yield from th.all_alloc(8192, blocksize=4096, dtype="u8")
        b = yield from th.all_alloc(8192, blocksize=4096, dtype="u8")
        arrays[:] = [a, b]
        yield from th.barrier()
        if th.id == 0:
            for k in range(n):
                yield from th.memget(arrays[k % 2], 4096, 4096)
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    return rt, arrays


def test_pin_down_cache_evictions_leave_object_arenas_pinned():
    rt, arrays = run_alternating_memgets(table=PinLog.like)
    node = rt.cluster.node(1)
    assert node.pins.evictions >= 2
    for arr in arrays:
        assert node.pins.is_pinned(arr.node_base[1], arr.node_bytes[1])
    # One registration per arena; the evictions deregister nothing.
    assert node.pins.pin_calls == 2 and node.pins.unpin_calls == 0


def test_already_pinned_shortcut_changes_nothing():
    def observe(forget):
        tables = []

        def table(old):
            tables.append(PinLog.like(old))
            if forget:
                tables[0].handles = Forgetful()
            return tables[0]

        log = EventLog()
        rt, _ = run_alternating_memgets(events=log, table=table)
        pin_us = sum(e.attrs["cost"] for e in log.by_kind(PIN)
                     if e.node == 1)
        return (rt.sim.now, pin_us, [e.key() for e in log]), \
            tables[0].registers

    fast, fast_pins = observe(forget=False)
    # Forced off: every AM miss takes the full pin path.
    full, full_pins = observe(forget=True)
    assert full == fast
    assert fast_pins < full_pins  # the shortcut did fire


# -- the pin-down cache never outlives, nor undercuts, an object ----------


def _arena(arr):
    return arr.node_base[1], arr.node_bytes[1]


def test_eviction_keeps_memory_a_remote_cache_points_at():
    # A rendezvous memput makes the pin-down cache pin `a`'s node-1
    # arena; a GET then tables `a` there and node 0 caches its base.
    # Two memputs into `b` evict the cache's range for `a`: the arena
    # must stay pinned, since the next GET of `a` is an RDMA read.
    rt = small_cache_runtime(use_rdma_put=False)
    seen = {}

    def kernel(th):
        a = yield from th.all_alloc(8192, blocksize=4096, dtype="u8")
        b = yield from th.all_alloc(8192, blocksize=4096, dtype="u8")
        yield from th.barrier()
        if th.id == 0:
            ones = np.ones(4096, dtype="u8")
            yield from th.memput(a, 4096, ones)
            yield from th.fence()
            yield from th.get(a, 4100)
            yield from th.memput(b, 4096, ones)
            yield from th.fence()
            yield from th.memput(b, 4096, 2 * ones)
            yield from th.fence()
            table = rt.pinned_table(1)
            seen["pinned"] = table.is_pinned(*_arena(a))
            gets = rt.metrics.rdma_gets
            seen["value"] = yield from th.get(a, 4101)
            seen["rdma"] = rt.metrics.rdma_gets - gets
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    assert seen["rdma"] == 1 and seen["value"] == 1
    assert seen["pinned"]


def test_free_deregisters_what_the_pin_down_cache_pinned():
    rt = small_cache_runtime(use_rdma_put=False)
    arenas = []

    def kernel(th):
        a = yield from th.all_alloc(8192, blocksize=4096, dtype="u8")
        yield from th.barrier()
        if th.id == 0:
            yield from th.memput(a, 4096, np.ones(4096, dtype="u8"))
            yield from th.fence()
            arenas.append(_arena(a))
        yield from th.barrier()
        yield from th.all_free(a)

    rt.spawn(kernel)
    rt.run()
    table = rt.pinned_table(1)
    assert not table.is_pinned(*arenas[0])
    assert table.pinned_bytes == 0
