"""An object stays pinned until it is freed (section 3.1), and the AM
handler's already-pinned re-check is exact.

The scenario: two GM nodes, a 48 KB pin-down cache and a one-entry
address cache, and one thread alternating 32 KB ``memget``s (so
rendezvous) of two arrays homed on node 1.  Each transfer caches its
target range in node 1's pin-down cache, which must evict on every
other access.
"""

from dataclasses import replace

from repro.memory import PinManager
from repro.network import GM_MARENOSTRUM
from repro.obs import EventLog
from repro.runtime import Runtime, RuntimeConfig

KB = 1024


def run_alternating_memgets(n=5, events=None):
    machine = replace(GM_MARENOSTRUM, transport=replace(
        GM_MARENOSTRUM.transport, reg_cache_bytes=48 * KB))
    rt = Runtime(RuntimeConfig(machine=machine, nthreads=2,
                               threads_per_node=1, cache_capacity=1,
                               seed=1, events=events))
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
    rt, arrays = run_alternating_memgets()
    node = rt.cluster.node(1)
    assert node.reg_cache.evictions >= 2
    for arr in arrays:
        assert node.pins.is_pinned(arr.node_base[1], arr.node_bytes[1])
    # One registration per arena; the evictions deregister nothing.
    assert node.pins.pin_calls == 2 and node.pins.unpin_calls == 0


def test_already_pinned_shortcut_changes_nothing(monkeypatch):
    pin, calls = PinManager.pin, []

    def counted_pin(self, vaddr, size):
        calls.append(vaddr)
        return pin(self, vaddr, size)

    monkeypatch.setattr(PinManager, "pin", counted_pin)

    def observe():
        calls.clear()
        log = EventLog()
        rt, _ = run_alternating_memgets(events=log)
        return (rt.sim.now, rt.pinned_table(1).pin_time_us,
                [e.key() for e in log]), len(calls)

    fast, fast_pins = observe()
    # Forced off: ``register`` always takes the full pin path.
    monkeypatch.setattr(PinManager, "region_at", lambda self, vaddr: None)
    full, full_pins = observe()
    assert full == fast
    assert fast_pins < full_pins  # the shortcut did fire
