"""The closed-form bulk planner plans what the per-segment loop planned.

``_oracle_plan`` is ``BulkEngine._plan`` as it stood before the planner
went array-at-a-time (and ``_oracle_segments`` the generator it walked),
moved here verbatim: one Python iteration per affine segment, open
messages in a dict keyed by where their arena range ends.  The property
below holds the new planner to it on items, issue order and counters.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import GM_MARENOSTRUM, Runtime, RuntimeConfig
from repro.runtime.bulk import _Message, _Run
from repro.runtime.errors import LayoutError, UPCRuntimeError
from repro.runtime.handle import ALL_PARTITION
from repro.runtime.layout import (BlockCyclicLayout, blocked_layout,
                                  cyclic_layout)
from repro.runtime.shared_array import SharedArray

COUNTERS = ("bulk_segments", "bulk_messages", "bulk_coalesced_segments",
            "bulk_bytes_saved")


def _oracle_segments(array, index, nelems):
    if nelems < 0:
        raise UPCRuntimeError(f"nelems must be >= 0, got {nelems}")
    if nelems == 0:
        return
    if index + nelems > array.nelems:   # the span's end, not only its start
        raise LayoutError(f"span [{index}, {index + nelems}) out of range")
    if array.owner is not None:
        yield index, nelems
        return
    bs = array.layout.blocksize
    pos, end = index, index + nelems
    while pos < end:
        block_end = (pos // bs + 1) * bs
        count = min(end, block_end) - pos
        yield pos, count
        pos += count


class _OracleMessage:
    def __init__(self, node, segment, nbytes, arena_end):
        self.node = node
        self.segments = [segment]
        self.nbytes = nbytes
        self.arena_end = arena_end


def _oracle_plan(thread, array, spans):
    engine = thread.runtime.bulk
    m = engine.rt.metrics
    ctrl = engine.rt.cluster.params.ctrl_bytes
    elem = array.elem_size
    cap = engine.max_coalesce_bytes
    home = thread.node.id
    items: List[object] = []
    #: (node, arena end byte) -> still-open message for that range.
    open_msgs: Dict[Tuple[int, int], _OracleMessage] = {}
    for span_idx, (index, nelems) in enumerate(spans):
        offset = 0
        for start, count in _oracle_segments(array, index, nelems):
            seg = (span_idx, offset, start, count)
            offset += count
            m.bulk_segments += 1
            _, node, arena_start = array.locate(start)
            if node == home:
                items.append(seg)
                continue
            nbytes = count * elem
            msg = open_msgs.pop((node, arena_start), None)
            if msg is not None and msg.nbytes + nbytes <= cap:
                msg.segments.append(seg)
                msg.nbytes += nbytes
                msg.arena_end += nbytes
                open_msgs[(node, msg.arena_end)] = msg
                m.bulk_coalesced_segments += 1
                # Each merged segment avoids one request/reply
                # control-message pair on the wire.
                m.bulk_bytes_saved += 2 * ctrl
            else:
                if msg is not None:
                    # Full message: leave it closed at its range.
                    open_msgs[(node, msg.arena_end)] = msg
                msg = _OracleMessage(node, seg, nbytes,
                                     arena_start + nbytes)
                open_msgs[(node, msg.arena_end)] = msg
                items.append(msg)
                m.bulk_messages += 1
    return items


def _segments(it, array):
    """A message's segments as a list of tuples, a run's spelled out."""
    if not isinstance(it, _Run):
        return it.segments
    step = array.layout.nthreads * array.layout.blocksize
    return [(0, it.at + r * step, it.start + r * step,
             array.layout.blocksize) for r in it.segments]


def _flat(items, array):
    """Items as plain data — a message as ``(node, segments, nbytes,
    arena_end)``; a bare segment is an intra-node access."""
    return [it if it.__class__ is tuple
            else (it.node, _segments(it, array), it.nbytes,
                  it.arena_lo + it.nbytes
                  if isinstance(it, (_Message, _Run)) else it.arena_end)
            for it in items]


def _counters(rt):
    return [getattr(rt.metrics, name) for name in COUNTERS]


def _both(rt, home_thread, array, spans, cap):
    """(new, oracle), each as (flat items, counters)."""
    rt.bulk.max_coalesce_bytes = cap
    thread = rt.threads[home_thread]
    out = []
    for plan in (rt.bulk._plan, _oracle_plan):
        before = _counters(rt)
        items = plan(thread, array, spans)
        out.append((_flat(items, array),
                    [b - a for a, b in zip(before, _counters(rt))]))
    return out


def _array(rt, layout, owner=None):
    return SharedArray(rt, rt.handles.fresh(ALL_PARTITION), layout,
                       np.dtype(f"u{layout.elem_size}"), owner=owner)


def _runtime(nthreads, tpn):
    return Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=nthreads,
                                 threads_per_node=tpn))


@st.composite
def _cases(draw):
    nthreads = draw(st.integers(1, 9))
    tpn = draw(st.integers(1, nthreads))
    nelems = draw(st.integers(1, 200))
    elem = draw(st.sampled_from([1, 4, 8]))
    kind = draw(st.sampled_from(["cyclic", "blocked", "block-cyclic",
                                 "owner"]))
    owner = None
    if kind == "cyclic":
        layout = cyclic_layout(nelems, elem, nthreads)
    elif kind == "blocked":
        layout = blocked_layout(nelems, elem, nthreads)
    elif kind == "owner":
        layout = BlockCyclicLayout(nelems, elem, nelems, 1)
        owner = draw(st.integers(0, nthreads - 1))
    else:
        layout = BlockCyclicLayout(nelems, elem,
                                   draw(st.integers(1, 12)), nthreads)
    bs = layout.blocksize
    chunk = layout.thread_chunk_elems

    def span():
        index = draw(st.integers(0, nelems - 1))
        shape = draw(st.sampled_from(["any", "empty", "to-block-end",
                                      "to-chunk-end", "one-block"]))
        room = nelems - index
        if shape == "empty":
            return index, 0
        if shape == "to-block-end":
            return index, min(room, bs - index % bs)
        if shape == "to-chunk-end":
            # Ends where some thread's chunk ends: the last course.
            return index, min(room, max(1, chunk * nthreads - index))
        if shape == "one-block":
            return index, min(room, draw(st.integers(1, bs)))
        return index, draw(st.integers(1, room))

    spans = [span() for _ in range(draw(st.integers(1, 6)))]
    # What makes two begins race for one end: a duplicate or overlap
    # (same begin, maybe shorter), and a span that begins where an
    # earlier one's last block ends in the arena — the same thread's
    # next course.
    for _ in range(draw(st.integers(0, (6 - len(spans)) // 2))):
        index, n = draw(st.sampled_from(spans))
        follow = ((index + max(n, 1) - 1) // bs + layout.nthreads) * bs
        if draw(st.booleans()) and follow < nelems:
            index, n = follow, min(bs, nelems - follow)
            spans.append((index, n))
        spans.append((index, draw(st.integers(0, n))))
    spans = draw(st.sampled_from([spans, draw(st.permutations(spans))]))
    one_segment = min(bs, nelems) * elem
    cap = draw(st.sampled_from([
        0, one_segment, 64 * 1024, 1 << 40,
        # A few segments and a bit: the cap that turns some away.
        draw(st.integers(0, 4 * min(bs, nelems))) * elem]))
    home = draw(st.integers(0, nthreads - 1))
    return nthreads, tpn, layout, owner, spans, cap, home


@st.composite
def _races(draw):
    """Two begins at the byte where an earlier segment ends, under a
    cap that admits only the shorter, later one — with noise around."""
    nthreads = draw(st.integers(2, 6))
    tpn = draw(st.integers(1, nthreads - 1))          # >= 2 nodes
    bs = draw(st.integers(2, 8))
    elem = draw(st.sampled_from([1, 8]))
    layout = BlockCyclicLayout(bs * nthreads * draw(st.integers(2, 4)),
                               elem, bs, nthreads)
    block = draw(st.integers(0, layout.nblocks - nthreads - 1))
    away = [t for t in range(nthreads)
            if t // tpn != block % nthreads // tpn]
    skip = draw(st.integers(0, bs - 1))
    long = draw(st.integers(2, bs))
    short = draw(st.integers(1, long - 1))
    follow = (block + nthreads) * bs
    spans = [(block * bs + skip, bs - skip), (follow, long),
             (follow, short)]
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(0, layout.nelems - 1))
        spans.insert(draw(st.integers(0, len(spans))),
                     (index, draw(st.integers(0, layout.nelems - index))))
    cap = draw(st.integers(bs - skip + short, bs - skip + long - 1)) * elem
    return (nthreads, tpn, layout, None, spans, cap,
            draw(st.sampled_from(away)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_cases(), _races()))
def test_planner_equals_the_per_segment_oracle(case):
    nthreads, tpn, layout, owner, spans, cap, home = case
    rt = _runtime(nthreads, tpn)
    new, old = _both(rt, home, _array(rt, layout, owner), spans, cap)
    assert new == old


def test_a_begin_turned_away_by_the_cap_leaves_the_end_to_its_rival():
    # One thread per node, so thread 1's blocks 1, 3, 5 sit back to
    # back in node 1's arena.  [4, 8) closes at the byte where both
    # [12, 16) and [12, 14) begin; the cap (6 elements) turns the first
    # away and must then let the shorter rival in.
    rt = _runtime(2, 1)
    array = _array(rt, BlockCyclicLayout(32, 8, 4, 2))
    spans = [(4, 4), (12, 4), (12, 2), (20, 4)]
    new, old = _both(rt, 0, array, spans, cap=6 * 8)
    assert new == old
    assert [segs for _, segs, _, _ in new[0]] == [
        [(0, 0, 4, 4), (2, 0, 12, 2)], [(1, 0, 12, 4)], [(3, 0, 20, 4)]]


def test_single_block_spans_take_no_arrays(monkeypatch):
    rt = _runtime(4, 2)
    array = _array(rt, BlockCyclicLayout(64, 8, 8, 4))
    monkeypatch.setattr("repro.runtime.bulk.np", None)
    (remote,) = rt.bulk._plan(rt.threads[0], array, [(17, 5)])
    assert remote == _Message(1, [(0, 0, 17, 5)], 40, 8)
    assert rt.bulk._plan(rt.threads[0], array, [(3, 5)]) == [(0, 0, 3, 5)]
    mget = rt.bulk._plan(rt.threads[0], array, [(16, 8), (56, 2), (28, 1)])
    assert [it.node for it in mget] == [1, 1, 1]


@pytest.mark.parametrize("spans, error", [
    ([(0, 4), (3, -2)], UPCRuntimeError),
    ([(60, 8)], LayoutError),
    ([(-1, 2)], LayoutError),
    ([(-9, 12), (0, 1)], LayoutError),
])
def test_bad_spans_are_still_refused(spans, error):
    rt = _runtime(4, 2)
    array = _array(rt, BlockCyclicLayout(60, 8, 8, 4))
    with pytest.raises(error):
        rt.bulk._plan(rt.threads[0], array, spans)
    with pytest.raises(error):
        _oracle_plan(rt.threads[0], array, spans)


# -- single spans, exhaustively -----------------------------------------

#: Eight threads, blocks of four 8-byte elements: full courses, a
#: partial last block, a partial last course, one block per thread (the
#: slots of neighbouring threads touch) and fewer blocks than threads.
SINGLE_LAYOUTS = {
    "three-courses": 96,
    "partial-last-block": 94,
    "partial-last-course": 76,
    "one-block-per-thread": 32,
    "fewer-blocks-than-threads": 20,
}


def _single_spans(nelems, bs=4):
    """Every span of whole blocks — those that reach a thread's last
    course included — plus each with its first and last element cut."""
    nblocks = -(-nelems // bs)
    for b0 in range(nblocks):
        for b1 in range(b0 + 1, nblocks + 1):
            index, end = b0 * bs, min(b1 * bs, nelems)
            yield index, end - index
            if end - index > 2:
                yield index + 1, end - index - 2


@pytest.mark.parametrize("tpn", [1, 2, 4])
@pytest.mark.parametrize("layout", sorted(SINGLE_LAYOUTS))
def test_single_spans_equal_the_oracle_from_every_home(layout, tpn):
    # Caps below one block, between one block and one run (two blocks
    # and a bit) and above any span.
    rt = _runtime(8, tpn)
    array = _array(rt, BlockCyclicLayout(SINGLE_LAYOUTS[layout], 8, 4, 8))
    for cap in (3 * 8, 9 * 8, 1 << 20):
        for span in _single_spans(SINGLE_LAYOUTS[layout]):
            for home in range(8):
                new, old = _both(rt, home, array, [span], cap)
                assert new == old, (cap, span, home)


def _kinds(rt, home, array, spans, cap=1 << 20):
    rt.bulk.max_coalesce_bytes = cap
    return {it.__class__ for it in rt.bulk._plan(rt.threads[home], array,
                                                 spans)}


def test_a_span_with_a_partial_block_walks_its_segments():
    rt = _runtime(8, 2)
    array = _array(rt, BlockCyclicLayout(96, 8, 4, 8))
    assert _kinds(rt, 0, array, [(0, 40)]) == {tuple, _Run}
    for span in ((1, 39), (0, 39), (94, 2), (3, 90)):
        assert _Run not in _kinds(rt, 0, array, [span]), span
        new, old = _both(rt, 0, array, [span], 1 << 20)
        assert new == old


def test_neighbouring_slots_coalesce_across_threads():
    # One block per thread: thread 2's block ends where thread 3's
    # begins in node 1's arena, so the segment walk makes one message
    # of both — which a plan per owner would not.
    rt = _runtime(8, 2)
    array = _array(rt, BlockCyclicLayout(32, 8, 4, 8))
    new, old = _both(rt, 0, array, [(8, 16)], 1 << 20)
    assert new == old
    assert new[0] == [(1, [(0, 0, 8, 4), (0, 4, 12, 4)], 64, 64),
                         (2, [(0, 8, 16, 4), (0, 12, 20, 4)], 64, 64)]
    assert _Run not in _kinds(rt, 0, array, [(8, 16)])


def test_a_span_to_the_last_course_is_one_run_per_owner():
    # Thread 2's run ends at its slot's end, where thread 3's first
    # block begins; but that block was scanned first, so the walk never
    # joins them, and the runs stay apart.
    rt = _runtime(8, 2)
    array = _array(rt, BlockCyclicLayout(96, 8, 4, 8))
    items = rt.bulk._plan(rt.threads[0], array, [(4, 92)])
    runs = {it.arena_lo: it for it in items if it.__class__ is _Run
            and it.node == 1}
    chunk = array.layout.thread_chunk_bytes
    assert sorted(runs) == [0, chunk]
    assert runs[0].arena_lo + runs[0].nbytes == chunk
    new, old = _both(rt, 0, array, [(4, 92)], 1 << 20)
    assert new == old


@pytest.mark.parametrize("op", ["get", "put"])
@pytest.mark.parametrize("index, nelems", [(950, 60), (400, 610)])
def test_a_span_past_a_partial_last_block_is_refused_at_issue(op, index,
                                                             nelems):
    # 1 000 elements in blocks of 512: the second block is partial, so
    # these spans end past the array although their last block begins
    # inside it.  Nothing may go on the wire.
    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=4,
                               threads_per_node=1))
    seen = {}

    def kernel(th):
        arr = yield from th.all_alloc(1000, blocksize=512, dtype="u8")
        yield from th.barrier()
        if th.id == 0:
            try:
                if op == "get":
                    yield from th.memget(arr, index, nelems)
                else:
                    yield from th.memput(arr, index, np.ones(nelems))
            except LayoutError as err:
                seen["error"] = str(err)
            seen["data"] = arr.data.copy()
        yield from th.barrier()

    rt.spawn(kernel)
    rt.run()
    assert seen["error"] == (f"span [{index}, {index + nelems}) out of "
                             "range [0, 1000)")
    assert not seen["data"].any()
    assert rt.metrics.bulk_messages == rt.metrics.bulk_transfers == 0
    assert rt.metrics.am_gets == rt.metrics.am_puts == 0
