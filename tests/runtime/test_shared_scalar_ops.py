"""Shared scalars flowing through the full GET/PUT machinery."""

import pytest

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig


def make_rt(**kw):
    kw.setdefault("threads_per_node", 4)
    return Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8, **kw))


def test_remote_scalar_get_put_roundtrip():
    rt = make_rt()
    sc = rt.alloc_scalar(owner_thread=5, dtype="f8")  # lives on node 1

    def kernel(th):
        if th.id == 5:
            sc.write(2.5)
        yield from th.barrier()
        v = yield from th.get(sc, 0)
        assert v == 2.5
        yield from th.barrier()
        if th.id == 0:
            yield from th.put(sc, 0, 7.25)
            yield from th.fence()
            w = yield from th.get(sc, 0)
            assert w == 7.25
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()


def test_scalar_addresses_are_cached_too():
    rt = make_rt()
    sc = rt.alloc_scalar(owner_thread=4, dtype="i8")

    def kernel(th):
        yield from th.barrier()
        if th.id == 0:
            for _ in range(6):
                yield from th.get(sc, 0)
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    cache = rt.addr_cache(0)
    assert (sc.handle, 1) in cache.entries()
    assert cache.stats.hits == 5
    assert rt.metrics.rdma_gets == 5


def test_scalar_local_access_is_cheap():
    rt = make_rt()
    sc = rt.alloc_scalar(owner_thread=0)

    def kernel(th):
        if th.id == 0:
            yield from th.put(sc, 0, 1.0)
            v = yield from th.get(sc, 0)
            assert v == 1.0
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    assert rt.metrics.get_local.count == 1
    assert rt.metrics.remote_ops == 0


def test_scalar_index_validation():
    rt = make_rt()
    sc = rt.alloc_scalar(owner_thread=0)
    with pytest.raises(ValueError):
        sc.locate(1)
    with pytest.raises(ValueError):
        sc.read(2)


def test_scalar_storage_map():
    rt = make_rt()
    sc = rt.alloc_scalar(owner_thread=6)
    assert set(sc.node_base) == {sc.home_node}
    assert sc.node_bytes[sc.home_node] == sc.elem_size
    node, vaddr = sc.home_node, sc.vaddr
    assert rt.cluster.node(node).memory.owns(vaddr)
