"""Tests for the upc_forall-style affinity iteration."""

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig


def make_rt(nthreads=8):
    return Runtime(RuntimeConfig(machine=GM_MARENOSTRUM,
                                 nthreads=nthreads, threads_per_node=4))


def test_forall_round_robin_partitions_indices():
    rt = make_rt(4)
    seen = {}

    def kernel(th):
        seen[th.id] = list(th.forall(10))
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    assert seen[0] == [0, 4, 8]
    assert seen[1] == [1, 5, 9]
    all_indices = sorted(i for idxs in seen.values() for i in idxs)
    assert all_indices == list(range(10))


def test_forall_with_array_affinity_yields_only_local():
    rt = make_rt()
    counts = {}

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        mine = list(th.forall(64, arr))
        counts[th.id] = len(mine)
        for i in mine:
            v = yield from th.get(arr, i)   # must all be local
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    assert sum(counts.values()) == 64
    assert rt.metrics.remote_ops == 0
    assert rt.metrics.get_shm.count == 0


def test_forall_start_step():
    rt = make_rt(2)
    seen = {}

    def kernel(th):
        seen[th.id] = list(th.forall(10, start=1, step=2))
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    # Indices 1,3,5,7,9 split round-robin over 2 threads by value.
    assert sorted(seen[0] + seen[1]) == [1, 3, 5, 7, 9]
