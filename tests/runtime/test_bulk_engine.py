"""Pipelined bulk-transfer engine (:mod:`repro.runtime.bulk`).

The contract under test: the engine changes *when* wire messages move,
never *what* data lands — results are bit-identical whatever the window
and the coalescing cap, window 1 with coalescing off is the serial
path (one blocking round trip per block, its virtual times pinned
below), and relaxed-put tracking still drains at fence/barrier.
"""

import numpy as np
import pytest

from repro.experiments.ablations import _bulk_memget
from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.errors import UPCRuntimeError

#: The serial bulk path: one message per block, one in flight.
SERIAL = dict(bulk_max_inflight=1, bulk_max_coalesce_bytes=0)


def make_rt(**kw):
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8,
                        threads_per_node=4, **kw)
    return Runtime(cfg)


def run1(kernel, **kw):
    rt = make_rt(**kw)
    rt.spawn(kernel)
    return rt, rt.run()


def seeded_kernel_results(**kw):
    """One kernel exercising memget/memput/gather over many blocks;
    returns everything it read, for cross-configuration comparison."""
    got = {}

    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(256, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            # 21-block span: every thread's blocks, both nodes.
            got["wide"] = yield from th.memget(arr, 3, 170)
            yield from th.memput(arr, 40, np.arange(500, 590, dtype="u4"))
            yield from th.fence()
            got["after_put"] = yield from th.memget(arr, 40, 90)
            got["gathered"] = yield from th.gather(
                arr, [7, 250, 13, 131, 64])
            got["gathered_v"] = yield from th.gather(
                arr, [4, 200], nelems=4)
        yield from th.barrier()
        # A different thread observes the put after the barrier.
        if th.id == 5:
            got["observed"] = yield from th.memget(arr, 40, 90)
        yield from th.barrier()

    rt, res = run1(kernel, **kw)
    return got, rt, res


def expected_kernel_results():
    """What :func:`seeded_kernel_results` must read, from NumPy alone."""
    data = np.arange(256, dtype="u4")
    wide = data[3:173].copy()
    data[40:130] = np.arange(500, 590, dtype="u4")
    return {"wide": wide, "after_put": data[40:130],
            "gathered": [data[i] for i in (7, 250, 13, 131, 64)],
            "gathered_v": [data[4:8], data[200:204]],
            "observed": data[40:130]}


def test_engine_on_off_bit_identical():
    # The default engine and the serial window-1 engine read the same
    # bits, and both read what NumPy says they must.
    want = expected_kernel_results()
    for kw in ({}, SERIAL):
        got, _, _ = seeded_kernel_results(**kw)
        assert got.keys() == want.keys()
        for key in want:
            a, b = got[key], want[key]
            if isinstance(b, list):
                assert len(a) == len(b)
                for x, y in zip(a, b):
                    assert np.array_equal(x, y), key
            else:
                assert a.dtype == b.dtype, key
                assert np.array_equal(a, b), key


def test_many_block_span_values_and_coalescing():
    got = {}

    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(256, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            got["chunk"] = yield from th.memget(arr, 0, 256)
        yield from th.barrier()

    rt, _ = run1(kernel)
    assert list(got["chunk"]) == list(range(256))
    m = rt.metrics
    # 32 blocks split into 32 segments; 16 belong to node 1, where the
    # arena packs each of the 4 thread slots' blocks contiguously —
    # one coalesced message per slot region.
    assert m.bulk_segments == 32
    assert m.bulk_messages == 4
    assert m.bulk_coalesced_segments == 12
    assert rt.metrics.get_remote.count == 4


def test_coalesce_cap_splits_messages():
    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.memget(arr, 0, 256)
        yield from th.barrier()

    # Each node-1 thread-slot region is 4 blocks * 32 B = 128 B; a
    # 64 B cap halves every slot message.
    rt, _ = run1(kernel, bulk_max_coalesce_bytes=64)
    assert rt.metrics.bulk_messages == 8
    # Coalescing disabled entirely: one message per remote segment.
    rt, _ = run1(kernel, bulk_max_coalesce_bytes=0)
    assert rt.metrics.bulk_messages == 16
    assert rt.metrics.bulk_coalesced_segments == 0


def test_window_one_no_coalesce_matches_serial_timing():
    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(256, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.memget(arr, 3, 170)
            yield from th.memput(arr, 40, np.arange(500, 560, dtype="u4"))
            yield from th.fence()
        yield from th.barrier()

    # One message per segment, one in flight at a time: the virtual
    # time of the serial path, pinned bit for bit.
    _, serial = run1(kernel, **SERIAL)
    assert serial.elapsed_us == 276.3225634765625


def test_window_one_pins_the_serial_bulk_sweep():
    # X12's serial column (alternating local/remote 256 B blocks), at
    # the virtual times the serial path has always produced.
    for nblocks, elapsed_us in ((4, 142.14626953125),
                                (16, 342.55470703124996),
                                (64, 1144.9384570312504),
                                (256, 4354.473457031247)):
        data, res = _bulk_memget(nblocks, **SERIAL)
        assert res.elapsed_us == elapsed_us, nblocks
        assert np.array_equal(data, np.arange(len(data), dtype="u4"))


def test_pipeline_depth_reaches_window():
    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.memget(arr, 0, 256)
        yield from th.barrier()

    rt, _ = run1(kernel, bulk_max_coalesce_bytes=0, bulk_max_inflight=4)
    assert rt.metrics.bulk_depth.max == 4
    rt, _ = run1(kernel, bulk_max_coalesce_bytes=0, bulk_max_inflight=1)
    assert rt.metrics.bulk_depth.max == 1


def test_fence_drains_inflight_bulk_puts():
    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            # 12 blocks' worth of puts left in flight, then fenced.
            yield from th.memput(arr, 60, np.arange(1000, 1100,
                                                    dtype="u4"))
            yield from th.fence()
        yield from th.barrier()
        if th.id == 6:
            got = yield from th.memget(arr, 60, 100)
            assert list(got) == list(range(1000, 1100))
        yield from th.barrier()

    run1(kernel, bulk_max_coalesce_bytes=0)   # maximise in-flight puts


def test_barrier_drains_inflight_bulk_puts():
    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.memput(arr, 0, np.arange(256, dtype="u4") * 3)
        yield from th.barrier()   # no explicit fence: barrier implies it
        got = yield from th.memget(arr, th.id * 8, 8)
        assert list(got) == [3 * (th.id * 8 + i) for i in range(8)]
        yield from th.barrier()

    run1(kernel, bulk_max_coalesce_bytes=0)


def test_gather_scalar_vector_contract():
    """Regression for the old ``gather`` bug: it returned ``v[0]`` even
    for multi-element requests, silently dropping the tail."""
    got = {}

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(64, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            got["scalars"] = yield from th.gather(arr, [3, 50, 7, 33])
            got["vectors"] = yield from th.gather(arr, [3, 50, 20],
                                                  nelems=4)
        yield from th.barrier()

    run1(kernel)
    # nelems=1 (default): plain python scalars, in input order.
    assert got["scalars"] == [3, 50, 7, 33]
    assert not isinstance(got["scalars"][0], np.ndarray)
    # nelems>1: one array per index, full width, in input order.
    assert [list(v) for v in got["vectors"]] == [
        [3, 4, 5, 6], [50, 51, 52, 53], [20, 21, 22, 23]]


def test_gather_contract_matches_at_window_one():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(64, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            s = yield from th.gather(arr, [9, 41])
            v = yield from th.gather(arr, [9, 41], nelems=3)
            assert s == [9, 41]
            assert [list(x) for x in v] == [[9, 10, 11], [41, 42, 43]]
        yield from th.barrier()

    run1(kernel, **SERIAL)


def test_bulk_config_validation():
    with pytest.raises(UPCRuntimeError):
        make_rt(bulk_max_inflight=0)
    with pytest.raises(UPCRuntimeError):
        make_rt(bulk_max_coalesce_bytes=-1)


@pytest.mark.parametrize("pipelined", [True, False])
def test_gather_nelems_zero_is_a_noop(pipelined):
    """upc_memget(p, q, 0) is a no-op, so a vector gather with
    nelems=0 yields one empty (but correctly-typed) array per index
    and moves no data — at the default window and at window 1 alike."""
    got = {}

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(64, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            got["empty"] = yield from th.gather(arr, [3, 40, 63],
                                               nelems=0)
            got["memget0"] = yield from th.memget(arr, 17, 0)
        yield from th.barrier()

    run1(kernel, **({} if pipelined else SERIAL))
    assert len(got["empty"]) == 3
    for v in got["empty"]:
        assert v.shape == (0,) and v.dtype == np.dtype("u4")
    assert got["memget0"].shape == (0,)
    assert got["memget0"].dtype == np.dtype("u4")


@pytest.mark.parametrize("pipelined", [True, False])
def test_gather_span_crosses_affinity_boundary(pipelined):
    """A gathered span that starts in one thread's block and ends in
    the next must split like memget does — at window 1 too, where each
    element batch was once issued as a single-block GET."""
    got = {}

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(64, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            # 6..10 spans blocks 0 and 1 (threads 0 and 1);
            # 30..34 spans threads 3 and 4 — i.e. both nodes.
            got["spans"] = yield from th.gather(arr, [6, 30], nelems=4)
        yield from th.barrier()

    run1(kernel, **({} if pipelined else SERIAL))
    assert [list(v) for v in got["spans"]] == [[6, 7, 8, 9],
                                              [30, 31, 32, 33]]


@pytest.mark.parametrize("pipelined", [True, False])
def test_gather_nelems_larger_than_blocksize(pipelined):
    """nelems > blocksize covers several whole blocks per index."""
    got = {}

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=4, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(64, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            got["wide"] = yield from th.gather(arr, [2, 45], nelems=10)
        yield from th.barrier()

    run1(kernel, **({} if pipelined else SERIAL))
    assert [list(v) for v in got["wide"]] == [
        list(range(2, 12)), list(range(45, 55))]


@pytest.mark.parametrize("pipelined", [True, False])
def test_memget_negative_nelems_rejected(pipelined):
    def kernel(th):
        arr = yield from th.all_alloc(16, blocksize=4, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            with pytest.raises(UPCRuntimeError):
                yield from th.memget(arr, 0, -1)
        yield from th.barrier()

    run1(kernel, **({} if pipelined else SERIAL))
