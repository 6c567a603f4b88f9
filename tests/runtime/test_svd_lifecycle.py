"""SVD life-cycle integration: dynamic allocation churn across the
whole runtime (section 2.1's consistency rules, exercised end-to-end).
"""

import pytest

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.handle import ALL_PARTITION


def make_rt(**kw):
    kw.setdefault("threads_per_node", 4)
    kw.setdefault("seed", 1)
    return Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8, **kw))


def test_alloc_free_churn_keeps_directory_consistent():
    rt = make_rt()

    def kernel(th):
        for round_ in range(4):
            arr = yield from th.all_alloc(128, blocksize=16, dtype="u4")
            yield from th.barrier()
            if th.id == round_ % 8:
                yield from th.put(arr, 100, round_)
                yield from th.fence()
            yield from th.barrier()
            v = yield from th.get(arr, 100)
            assert v == round_
            yield from th.all_free(arr)
        yield from th.barrier()

    rt.spawn(kernel)
    res = rt.run()
    assert rt.metrics.allocations == 4
    assert rt.metrics.frees == 4
    # After all frees every node's pin table and cache are empty.
    for node in rt.cluster.nodes:
        assert rt.pinned_table(node.id).pinned_bytes == 0
        assert len(rt.addr_cache(node.id)) == 0


def test_handles_increment_within_all_partition():
    rt = make_rt()
    seen = []

    def kernel(th):
        a = yield from th.all_alloc(16, blocksize=2, dtype="u4")
        b = yield from th.all_alloc(16, blocksize=2, dtype="u4")
        if th.id == 0:
            seen.extend([a.handle, b.handle])
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    assert seen[0].partition == ALL_PARTITION
    assert seen[1].index == seen[0].index + 1


def test_mixed_global_and_collective_allocation():
    rt = make_rt()
    out = {}

    def kernel(th):
        shared = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        if th.id == 3:
            private = yield from th.global_alloc(32, blocksize=4,
                                                 dtype="u4")
            out["private"] = private
        yield from th.barrier()
        # Everyone can address the globally-allocated array.
        if th.id == 6:
            yield from th.put(out["private"], 0, 42)
            yield from th.fence()
        yield from th.barrier()
        v = yield from th.get(out["private"], 0)
        assert v == 42
        yield from th.barrier()
        _ = shared

    rt.spawn(kernel)
    rt.run()
    assert out["private"].handle.partition == 3


def test_memory_returns_to_heap_after_free():
    rt = make_rt()
    before = {n.id: n.memory.allocated_bytes for n in rt.cluster.nodes}

    def kernel(th):
        arr = yield from th.all_alloc(4096, blocksize=512, dtype="u8")
        yield from th.barrier()
        yield from th.all_free(arr)
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    after = {n.id: n.memory.allocated_bytes for n in rt.cluster.nodes}
    assert before == after


def test_many_live_arrays_independent_caches():
    rt = make_rt()

    def kernel(th):
        arrays = []
        for _ in range(5):
            a = yield from th.all_alloc(64, blocksize=8, dtype="u4")
            arrays.append(a)
        yield from th.barrier()
        if th.id == 0:
            for a in arrays:
                yield from th.get(a, 40)   # one miss each
                yield from th.get(a, 41)   # one hit each
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    cache = rt.addr_cache(0)
    assert len(cache) == 5                 # one entry per (handle, node)
    assert cache.stats.hits == 5
    assert cache.stats.misses == 5
