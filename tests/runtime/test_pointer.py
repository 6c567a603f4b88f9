"""Unit + property tests for pointer-to-shared arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import BlockCyclicLayout, PointerToShared
from repro.runtime.errors import LayoutError


def lay(nelems=24, blocksize=4, nthreads=3, elem_size=8):
    return BlockCyclicLayout(nelems=nelems, elem_size=elem_size,
                             blocksize=blocksize, nthreads=nthreads)


def test_from_index_decomposition():
    p = PointerToShared.from_index(lay(), 13)
    # 13 // 4 = block 3 → thread 0, phase 1, course 1.
    assert p.thread == 0
    assert p.phase == 1
    assert p.course == 1
    assert p.to_index() == 13


def test_intrinsics():
    p = PointerToShared.from_index(lay(), 6)
    assert p.threadof() == lay().thread_of(6)
    assert p.phaseof() == 6 % lay().blocksize


def test_increment_walks_global_layout_order():
    layout = lay()
    p = PointerToShared.from_index(layout, 0)
    seen = [p.to_index()]
    for _ in range(layout.nelems - 1):
        p = p + 1
        seen.append(p.to_index())
    assert seen == list(range(layout.nelems))


def test_pointer_difference():
    layout = lay()
    a = PointerToShared.from_index(layout, 20)
    b = PointerToShared.from_index(layout, 5)
    assert a - b == 15
    assert b - a == -15


def test_difference_across_arrays_rejected():
    a = PointerToShared.from_index(lay(), 0)
    b = PointerToShared.from_index(lay(nelems=25), 0)
    with pytest.raises(LayoutError):
        _ = a - b


def test_local_offset_bytes_matches_layout():
    layout = lay()
    for i in range(layout.nelems):
        p = PointerToShared.from_index(layout, i)
        assert p.local_offset_bytes() == layout.local_offset_bytes(i)


def test_out_of_range_from_index():
    with pytest.raises(LayoutError):
        PointerToShared.from_index(lay(), 24)


def test_past_the_end_pointer_detected():
    layout = lay(nelems=10, blocksize=4, nthreads=3)
    p = PointerToShared(layout=layout, thread=2, phase=3, course=0)
    with pytest.raises(LayoutError):
        p.to_index()


@settings(max_examples=100, deadline=None)
@given(
    nelems=st.integers(2, 300),
    blocksize=st.integers(1, 32),
    nthreads=st.integers(1, 8),
    data=st.data(),
)
def test_property_add_is_index_addition(nelems, blocksize, nthreads, data):
    layout = BlockCyclicLayout(nelems=nelems, elem_size=4,
                               blocksize=blocksize, nthreads=nthreads)
    i = data.draw(st.integers(0, nelems - 1), label="i")
    k = data.draw(st.integers(-i, nelems - 1 - i), label="k")
    p = PointerToShared.from_index(layout, i)
    assert (p + k).to_index() == i + k
