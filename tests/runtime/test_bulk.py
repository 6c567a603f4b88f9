"""Bulk-transfer (memget/memput) semantics across block boundaries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.errors import AffinityError, UPCRuntimeError


def make_rt(**kw):
    cfg = RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8,
                        threads_per_node=4, **kw)
    return Runtime(cfg)


def run1(kernel, **kw):
    rt = make_rt(**kw)
    rt.spawn(kernel)
    return rt, rt.run()


def test_get_rejects_block_crossing_span():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            yield from th.get(arr, 6, 4)  # crosses blocks 0|1

    rt = make_rt()
    rt.spawn(kernel)
    with pytest.raises(AffinityError, match="memget/memput"):
        rt.run()


def test_memget_spanning_blocks_returns_global_order():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(64, dtype="u4")
        yield from th.barrier()
        chunk = yield from th.memget(arr, 5, 20)  # spans 3 blocks
        assert list(chunk) == list(range(5, 25))
        yield from th.barrier()

    run1(kernel)


def test_memput_spanning_blocks_lands_in_place():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 3:
            yield from th.memput(arr, 12, np.arange(100, 120, dtype="u4"))
            yield from th.fence()
        yield from th.barrier()
        got = yield from th.memget(arr, 12, 20)
        assert list(got) == list(range(100, 120))
        yield from th.barrier()

    run1(kernel)


@pytest.mark.parametrize("puts, messages, coalesced", [
    ([(32, 8)], 1, 0),                  # one message, run inline
    ([(24, 40)], 4, 0),                 # four messages, pipelined
    # Thread 4's blocks 4, 12, 20 sit back to back in its chunk and
    # travel as one message; thread 5's block 5 travels alone.
    ([(32, 8), (96, 8), (40, 8), (160, 8)], 2, 2),
], ids=["inline", "pipelined", "vectored"])
def test_memput_source_is_free_once_memput_returns(puts, messages,
                                                   coalesced):
    # The wire carries what the buffers held when memput began:
    # overwriting them as soon as memput returns, before node 1 has
    # applied anything, must not change what lands.
    sent = [(index, np.arange(n, dtype="u4") + 100 * k + 1000)
            for k, (index, n) in enumerate(puts)]
    held = {}

    def kernel(th):
        arr = yield from th.all_alloc(256, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            held["arr"] = arr
            bufs = [vals.copy() for _, vals in sent]
            if len(bufs) == 1:
                yield from th.memput(arr, sent[0][0], bufs[0])
            else:
                yield from th.memput_v(arr, [(index, buf) for (index, _),
                                             buf in zip(sent, bufs)])
            pending = len(th._outstanding_puts)
            for buf in bufs:
                buf[:] = 7
            held["unapplied"] = sum(not ev.processed for ev in
                                    th._outstanding_puts[-pending:])
            yield from th.fence()
        yield from th.barrier()

    rt, _ = run1(kernel)
    assert held["unapplied"] == messages    # overwritten before landing
    for index, vals in sent:
        assert held["arr"].data[index:index + len(vals)].tolist() == \
            vals.tolist()
    assert rt.metrics.bulk_messages == messages
    assert rt.metrics.bulk_coalesced_segments == coalesced


def test_memget_touches_multiple_owner_nodes():
    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            # Blocks 3,4,5 are owned by threads 3 (node 0), 4, 5 (node 1).
            yield from th.memget(arr, 24, 24)
        yield from th.barrier()

    # The bulk engine coalesces the two node-1 blocks (arena-adjacent
    # on their owner) into a single wire message.
    rt, res = run1(kernel)
    assert rt.metrics.get_remote.count == 1   # blocks on node 1, coalesced
    assert rt.metrics.get_shm.count == 1      # block of thread 3
    assert rt.metrics.bulk_coalesced_segments == 1

    # At window 1 without coalescing: one round trip per remote block.
    rt, res = run1(kernel, bulk_max_inflight=1, bulk_max_coalesce_bytes=0)
    assert rt.metrics.get_remote.count == 2
    assert rt.metrics.get_shm.count == 1


def test_memget_zero_span_is_noop_and_negative_rejected():
    # upc_memget(p, q, 0) is a no-op: returns an empty typed array,
    # moves nothing.  Negative counts are still programming errors.
    got = {}

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        got["empty"] = yield from th.memget(arr, 0, 0)

    rt = make_rt()
    rt.spawn(kernel)
    rt.run()
    assert got["empty"].shape == (0,)
    assert got["empty"].dtype == np.dtype("u4")
    assert rt.metrics.get_remote.count == 0 and rt.metrics.get_shm.count == 0

    def bad(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        yield from th.barrier()
        yield from th.memget(arr, 0, -3)

    rt = make_rt()
    rt.spawn(bad)
    with pytest.raises(UPCRuntimeError):
        rt.run()


def test_local_alloc_memget_is_single_segment():
    def kernel(th):
        if th.id == 2:
            arr = yield from th.local_alloc(64, dtype="u4")
            arr.data[:] = np.arange(64, dtype="u4")
            got = yield from th.memget(arr, 10, 40)
            assert list(got) == list(range(10, 50))
        yield from th.barrier()

    rt, _ = run1(kernel)
    # All 40 elements moved as one local access.
    assert rt.metrics.get_local.count == 1


@settings(max_examples=12, deadline=None)
@given(
    blocksize=st.integers(1, 16),
    start=st.integers(0, 40),
    count=st.integers(1, 24),
    seed=st.integers(0, 3),
    more=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 24)),
                  max_size=3),
)
def test_property_memget_equals_data_plane(blocksize, start, count, seed,
                                           more):
    """memget over any (blocksize, span), and memget_v over that span
    and ``more``, return exactly the global array contents, cached or
    not."""
    count = min(count, 64 - start)
    spans = [(start, count)] + [(i, min(n, 64 - i)) for i, n in more]
    results = {}

    def run_mode(cache_enabled):
        def kernel(th):
            arr = yield from th.all_alloc(64, blocksize=blocksize,
                                          dtype="u4")
            if th.id == 0:
                arr.data[:] = np.arange(64, dtype="u4") * 3 + seed
            yield from th.barrier()
            got = yield from th.memget(arr, start, count)
            assert list(got) == [3 * i + seed for i in
                                 range(start, start + count)]
            got = yield from th.memget_v(arr, spans)
            for (index, n), vals in zip(spans, got):
                assert list(vals) == [3 * i + seed for i in
                                      range(index, index + n)]
            yield from th.barrier()
            return True

        rt = make_rt(cache_enabled=cache_enabled, seed=seed)
        procs = rt.spawn(kernel)
        res = rt.run()
        return res.elapsed_us

    results["on"] = run_mode(True)
    results["off"] = run_mode(False)
    # With a single access per (handle, node) pair the cache is pure
    # overhead (first-touch pinning + piggyback, no reuse) — it may
    # lose slightly, but never catastrophically.
    assert results["on"] <= results["off"] * 1.25
