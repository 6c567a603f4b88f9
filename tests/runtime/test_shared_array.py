"""Unit tests for SharedArray storage and addressing."""

import numpy as np
import pytest

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.errors import LayoutError


def make_rt(nthreads=8, tpn=4, **kw):
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=nthreads,
                        threads_per_node=tpn, **kw)
    return Runtime(cfg)


def alloc(rt, nelems=256, blocksize=16, dtype="u4"):
    out = {}

    def kernel(th):
        arr = yield from th.all_alloc(nelems, blocksize=blocksize,
                                      dtype=dtype)
        out["arr"] = arr
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    return out["arr"]


def test_arena_per_node_with_different_bases():
    rt = make_rt()
    arr = alloc(rt)
    assert set(arr.node_base) == {0, 1}
    assert arr.node_base[0] != arr.node_base[1]  # Figure 2's property


def test_owner_thread_and_node():
    rt = make_rt()
    arr = alloc(rt, nelems=256, blocksize=16)
    # Block 0 → thread 0 (node 0); block 4 → thread 4 (node 1).
    assert arr.owner_thread(0) == 0 and arr.owner_node(0) == 0
    assert arr.owner_thread(4 * 16) == 4 and arr.owner_node(4 * 16) == 1


def test_arena_offset_is_layout_arithmetic():
    rt = make_rt()
    arr = alloc(rt, nelems=256, blocksize=16, dtype="u4")
    # Element 5*16 (block 5 → thread 5, node 1, slot 1, first block row).
    idx = 5 * 16
    expect = 1 * arr.layout.thread_chunk_bytes + 0
    thread, node, offset = arr.locate(idx)
    assert (thread, node, offset) == (5, 1, expect)


def test_addresses_stay_inside_arena():
    rt = make_rt(nthreads=6, tpn=4)
    arr = alloc(rt, nelems=300, blocksize=7, dtype="u8")
    for idx in range(0, 300, 13):
        _, node, offset = arr.locate(idx)
        base = arr.node_base[node]
        vaddr = base + offset
        assert base <= vaddr < base + arr.node_bytes[node]


def test_data_plane_read_write_roundtrip():
    rt = make_rt()
    arr = alloc(rt, dtype="u4")
    arr.write(10, np.arange(5, dtype="u4"))
    got = arr.read(10, 5)
    assert list(got) == [0, 1, 2, 3, 4]
    got[0] = 99  # read returns a copy
    assert arr.read(10, 1)[0] == 0


def test_span_validation():
    rt = make_rt()
    arr = alloc(rt, nelems=64, blocksize=8)
    with pytest.raises(LayoutError):
        arr.read(60, 5)
    with pytest.raises(LayoutError):
        arr.read(0, 0)


def test_dtype_must_match_layout():
    rt = make_rt()
    with pytest.raises(LayoutError):
        # total mismatch between layout elem_size and dtype.
        from repro.runtime import BlockCyclicLayout, SVDHandle
        from repro.runtime.shared_array import SharedArray
        layout = BlockCyclicLayout(nelems=8, elem_size=2, blocksize=2,
                                   nthreads=8)
        SharedArray(rt, SVDHandle(partition=-1, index=50), layout,
                    np.dtype("u4"))


def test_local_alloc_owned_entirely_by_caller():
    rt = make_rt()
    out = {}

    def kernel(th):
        if th.id == 3:
            arr = yield from th.local_alloc(64, dtype="u2")
            out["arr"] = arr
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    arr = out["arr"]
    assert all(arr.owner_thread(i) == 3 for i in range(0, 64, 7))
    assert set(arr.node_base) == {0}  # thread 3 lives on node 0
    assert arr.locate(10) == (3, 0, 10 * 2)
