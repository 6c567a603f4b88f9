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
from repro.runtime.bulk import _Message
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


def _flat(items):
    """Items as plain data — a message as ``(node, segments, nbytes,
    arena_end)``; a bare segment is an intra-node access."""
    return [it if it.__class__ is tuple
            else (it.node, it.segments, it.nbytes,
                  it.arena_lo + it.nbytes if isinstance(it, _Message)
                  else it.arena_end)
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
        out.append((_flat(items),
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
