"""Unit + property tests for block-cyclic layouts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import BlockCyclicLayout, LayoutError, PointerToShared


def test_blockcyclic_round_robin_over_blocks():
    lay = BlockCyclicLayout(nelems=12, elem_size=4, blocksize=2, nthreads=3)
    owners = [lay.thread_of(i) for i in range(12)]
    assert owners == [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]


def test_phase_and_block():
    # The phase and block row of an element are its pointer's
    # (``upc_phaseof``); block = course * nthreads + thread.
    lay = BlockCyclicLayout(nelems=10, elem_size=8, blocksize=3, nthreads=2)
    p0, p4 = (PointerToShared.from_index(lay, i) for i in (0, 4))
    assert p0.phase == 0
    assert p4.phase == 1
    assert p4.course * lay.nthreads + p4.thread == 1
    assert lay.nblocks == 4


def test_local_index_packs_blocks_contiguously():
    lay = BlockCyclicLayout(nelems=12, elem_size=1, blocksize=2, nthreads=3)
    # Thread 0 owns blocks 0 and 3 → global elements 0,1,6,7.
    assert [lay.local_index(i) for i in (0, 1, 6, 7)] == [0, 1, 2, 3]
    # Thread 1 owns blocks 1 and 4 → elements 2,3,8,9.
    assert [lay.local_index(i) for i in (2, 3, 8, 9)] == [0, 1, 2, 3]


def test_cyclic_layout():
    # Blocksize 1: UPC's default for ``shared int a[N]``.
    lay = BlockCyclicLayout(nelems=10, elem_size=4, blocksize=1, nthreads=3)
    assert [lay.thread_of(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]


def test_contiguous_span_detection():
    lay = BlockCyclicLayout(nelems=20, elem_size=1, blocksize=5, nthreads=2)
    assert lay.contiguous_span(0, 5)
    assert not lay.contiguous_span(3, 5)


def test_bad_parameters_rejected():
    with pytest.raises(LayoutError):
        BlockCyclicLayout(nelems=0, elem_size=1, blocksize=1, nthreads=1)
    with pytest.raises(LayoutError):
        BlockCyclicLayout(nelems=1, elem_size=0, blocksize=1, nthreads=1)
    with pytest.raises(LayoutError):
        BlockCyclicLayout(nelems=1, elem_size=1, blocksize=0, nthreads=1)
    with pytest.raises(LayoutError):
        BlockCyclicLayout(nelems=1, elem_size=1, blocksize=1, nthreads=0)


def test_index_out_of_range_rejected():
    lay = BlockCyclicLayout(nelems=10, elem_size=1, blocksize=2, nthreads=2)
    with pytest.raises(LayoutError):
        lay.thread_of(10)
    with pytest.raises(LayoutError):
        lay.local_index(-1)


@settings(max_examples=100, deadline=None)
@given(
    nelems=st.integers(1, 500),
    blocksize=st.integers(1, 64),
    nthreads=st.integers(1, 16),
    elem_size=st.sampled_from([1, 2, 4, 8]),
)
def test_property_layout_partition_is_exact(nelems, blocksize, nthreads,
                                            elem_size):
    """Every element has exactly one owner; per-thread local indices
    are dense (0..count-1)."""
    lay = BlockCyclicLayout(nelems=nelems, elem_size=elem_size,
                            blocksize=blocksize, nthreads=nthreads)
    per_thread = {}
    for i in range(nelems):
        t = lay.thread_of(i)
        per_thread.setdefault(t, []).append(lay.local_index(i))
    total = 0
    for t, idxs in per_thread.items():
        assert sorted(idxs) == list(range(len(idxs))), "local indices dense"
        total += len(idxs)
    assert total == nelems
