"""Unit + property tests for the per-node address space."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import AddressSpace, AllocationError


def test_bases_differ_per_node():
    # Figure 2: the same object has a different local address per node.
    spaces = [AddressSpace(n) for n in range(8)]
    bases = {s.base for s in spaces}
    assert len(bases) == 8


def test_allocate_returns_aligned_disjoint_blocks():
    asp = AddressSpace(0)
    a = asp.allocate(100, align=64)
    b = asp.allocate(100, align=64)
    assert a % 64 == 0 and b % 64 == 0
    assert abs(a - b) >= 100


def test_allocation_size_must_be_positive():
    asp = AddressSpace(0)
    with pytest.raises(AllocationError):
        asp.allocate(0)
    with pytest.raises(AllocationError):
        asp.allocate(-5)


def test_alignment_must_be_power_of_two():
    asp = AddressSpace(0)
    with pytest.raises(AllocationError):
        asp.allocate(8, align=24)


def test_free_and_reuse():
    asp = AddressSpace(0)
    a = asp.allocate(4096)
    asp.free(a)
    b = asp.allocate(4096)
    assert b == a  # hole is reused first-fit


def test_double_free_rejected():
    asp = AddressSpace(0)
    a = asp.allocate(16)
    asp.free(a)
    with pytest.raises(AllocationError):
        asp.free(a)


def test_free_unknown_address_rejected():
    asp = AddressSpace(0)
    with pytest.raises(AllocationError):
        asp.free(0xDEAD)


def test_owns_respects_node_range():
    a0, a1 = AddressSpace(0), AddressSpace(1)
    va = a0.allocate(8)
    assert a0.owns(va)
    assert not a1.owns(va)


def test_out_of_memory():
    asp = AddressSpace(0, capacity_bytes=1024)
    asp.allocate(512)
    with pytest.raises(AllocationError):
        asp.allocate(1024)


def test_coalescing_reduces_fragmentation():
    asp = AddressSpace(0)
    blocks = [asp.allocate(128, align=16) for _ in range(8)]
    for b in blocks:
        asp.free(b)
    # All holes coalesce and return to the frontier.
    assert asp.fragmentation == 0.0
    assert asp.allocated_bytes == 0


def test_peak_and_counters():
    asp = AddressSpace(0)
    a = asp.allocate(100)
    b = asp.allocate(50)
    asp.free(a)
    assert asp.peak_bytes == 150
    assert asp.allocated_bytes == 50
    assert asp.alloc_count == 2
    assert asp.free_count == 1
    asp.free(b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1,
                max_size=40),
       st.data())
def test_property_blocks_never_overlap_and_accounting_balances(sizes, data):
    """Live blocks stay disjoint and byte accounting is exact under an
    arbitrary interleaving of allocs and frees."""
    asp = AddressSpace(3)
    live = {}
    for i, size in enumerate(sizes):
        va = asp.allocate(size)
        live[va] = size
        # Randomly free one existing block.
        if live and data.draw(st.booleans(), label=f"free_after_{i}"):
            victim = data.draw(st.sampled_from(sorted(live)), label="victim")
            asp.free(victim)
            del live[victim]
    spans = sorted((va, va + sz) for va, sz in live.items())
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2, "live allocations overlap"
    assert asp.allocated_bytes == sum(live.values())
