"""Split-phase (non-blocking) communication tests."""

import numpy as np

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig


def make_rt(**kw):
    kw.setdefault("threads_per_node", 4)
    kw.setdefault("seed", 1)
    return Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8, **kw))


def test_get_nb_returns_value_via_handle():
    rt = make_rt()

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(64, dtype="u4")
        yield from th.barrier()
        if th.id == 0:
            h = th.get_nb(arr, 40)
            v = yield h
            assert v[0] == 40
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()


def test_pipelined_gets_overlap_roundtrips():
    """Eight concurrent remote GETs must complete far faster than
    eight serialized ones (latency overlap is the whole point)."""
    def run(pipelined):
        rt = make_rt()
        marks = {}

        def kernel(th):
            arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
            yield from th.barrier()
            if th.id == 0:
                t0 = rt.sim.now
                if pipelined:
                    handles = [th.get_nb(arr, 40 + k % 8)
                               for k in range(8)]
                    yield from th.wait_all(handles)
                else:
                    for k in range(8):
                        yield from th.get(arr, 40 + k % 8)
                marks["dt"] = rt.sim.now - t0
            yield from th.barrier()

        rt.spawn(kernel)
        rt.run()
        return marks["dt"]

    serial = run(False)
    overlapped = run(True)
    assert overlapped < 0.6 * serial


def test_wait_all_preserves_order():
    rt = make_rt()

    def kernel(th):
        arr = yield from th.all_alloc(64, blocksize=8, dtype="u4")
        if th.id == 0:
            arr.data[:] = np.arange(64, dtype="u4") * 2
        yield from th.barrier()
        handles = [th.get_nb(arr, i) for i in (40, 8, 56, 1)]
        values = yield from th.wait_all(handles)
        assert [v[0] for v in values] == [80, 16, 112, 2]
        yield from th.barrier()
        empty = yield from th.wait_all([])
        assert empty == []

    rt.spawn(kernel)
    rt.run()


def test_gather_returns_input_order_and_pipelines():
    rt = make_rt()

    def kernel(th):
        arr = yield from th.all_alloc(128, blocksize=8, dtype="u8")
        if th.id == 0:
            arr.data[:] = np.arange(128, dtype="u8") ** 2
        yield from th.barrier()
        if th.id == 0:
            idxs = [(7 * k + 3) % 128 for k in range(24)]
            vals = yield from th.gather(arr, idxs, width=6)
            assert vals == [i * i for i in idxs]
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()


def test_split_phase_functional_equivalence():
    def run_mode(cache_enabled):
        rt = make_rt(cache_enabled=cache_enabled)
        out = {}

        def kernel(th):
            arr = yield from th.all_alloc(64, blocksize=8, dtype="u8")
            if th.id == 0:
                arr.data[:] = np.arange(64, dtype="u8") + 5
            yield from th.barrier()
            vals = yield from th.gather(
                arr, [(th.id * 11 + k) % 64 for k in range(10)])
            out.setdefault("sums", []).append(sum(int(v) for v in vals))
            yield from th.barrier()

        rt.spawn(kernel)
        rt.run()
        return sorted(out["sums"])

    assert run_mode(True) == run_mode(False)
