"""Unit + property tests for registration: the cost arithmetic and the
physical-address synthesis of ``memory/pinning.py``, and how the
pinned address table pins with them (per-handle cap chunking, the
total cap, idempotence)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PinnedAddressTable
from repro.memory import PinCostModel, PinLimitError
from repro.util import MB


def test_pin_returns_positive_cost_and_region():
    t = PinnedAddressTable(0)
    cost, ok = t.register("h", 0x1000, 8192)
    assert ok and cost > 0
    assert t.regions == {0x1000: (0x1000, 0x1000 + 8192, "h")}
    assert t.pinned_bytes == 8192


def test_pin_is_idempotent_and_free_second_time():
    # Section 3.1: "once a shared object is pinned it remains pinned".
    t = PinnedAddressTable(0)
    c1, _ = t.register("h", 0x1000, 4096)
    c2, _ = t.register("h", 0x1000, 4096)
    assert c1 > 0 and c2 == 0.0
    assert t.pinned_bytes == 4096


def test_partial_overlap_only_pins_the_gap():
    t = PinnedAddressTable(0)
    t.register("h", 0x1000, 4096)
    cost, _ = t.register("h", 0x1000, 8192)  # second half is new
    assert cost == PinCostModel().pin_cost(4096, t.page_size)
    assert t.pinned_bytes == 8192
    assert t.is_pinned(0x1000, 8192)


def test_chunking_respects_max_region_bytes():
    # Section 3.2: LAPI limits a single registered handle (32 MB).
    t = PinnedAddressTable(0, max_region_bytes=32 * MB)
    t.register("h", 0x10_0000, 100 * MB)
    sizes = [end - start for start, end, _ in t.regions.values()]
    assert sorted(sizes) == [4 * MB, 32 * MB, 32 * MB, 32 * MB]
    assert t.is_pinned(0x10_0000, 100 * MB)


def test_total_limit_enforced():
    # Section 3.3: GM's DMAable-memory cap (1 GB on the paper's nodes).
    t = PinnedAddressTable(0, max_total_bytes=10 * MB)
    assert t.register("h", 0x1000, 6 * MB)[1]
    assert t.register("i", 0x4000_0000, 6 * MB) == (0.0, False)
    assert isinstance(t.last_pin_error, PinLimitError)
    with pytest.raises(PinLimitError):
        t.register_lazy(0x8000_0000, 6 * MB)


def test_phys_addr_requires_pin_and_offsets_correctly():
    t = PinnedAddressTable(0)
    t.register("h", 0x2000, 4096)
    base = t.lookup_phys(0x2000)
    assert t.lookup_phys(0x2100) == base + 0x100
    assert t.lookup_phys(0x9000) is None


def test_phys_addr_distinct_across_nodes():
    a, b = PinnedAddressTable(0), PinnedAddressTable(1)
    a.register("h", 0x1000, 64)
    b.register("h", 0x1000, 64)
    assert a.lookup_phys(0x1000) != b.lookup_phys(0x1000)


def test_unpin_releases_bytes_and_costs_more_than_pin():
    t = PinnedAddressTable(0, cost_model=PinCostModel())
    pin_cost, _ = t.register("h", 0x1000, 64 * 1024)
    unpin_cost = t.free("h", 0x1000, 64 * 1024)
    assert unpin_cost > pin_cost  # dereg "even more" expensive (3.3)
    assert t.pinned_bytes == 0
    assert not t.is_pinned(0x1000, 64 * 1024)


def test_unpin_overlapping_range_removes_whole_regions():
    t = PinnedAddressTable(0, max_region_bytes=4096)
    t.register("h", 0x1000, 8192)
    t.free("x", 0x1000 + 4096, 1)  # touches only the second chunk
    assert t.is_pinned(0x1000, 4096)
    assert not t.is_pinned(0x1000, 8192)


def test_cost_model_scales_with_pages():
    cm = PinCostModel(pin_base_us=10, pin_per_page_us=1.0)
    assert cm.pin_cost(4096, 4096) == 11.0
    assert cm.pin_cost(4097, 4096) == 12.0


def test_pin_size_must_be_positive():
    t = PinnedAddressTable(0)
    assert t.register("h", 0x1000, 0) == (0.0, False)
    assert isinstance(t.last_pin_error, PinLimitError)
    with pytest.raises(PinLimitError):
        t.register_lazy(0x1000, 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 40)),
                min_size=1, max_size=30))
def test_property_is_pinned_matches_interval_union(ops):
    """is_pinned agrees with a brute-force page-set model under arbitrary
    overlapping pins (addresses in a small page-aligned arena)."""
    page = 16
    t = PinnedAddressTable(0, page_size=page)
    pinned_units = set()
    for start_u, len_u in ops:
        vaddr = 0x1000 + start_u * page
        size = len_u * page
        t.register("h", vaddr, size)
        pinned_units.update(range(start_u, start_u + len_u))
    for probe in range(0, 100):
        va = 0x1000 + probe * page
        expect = probe in pinned_units
        assert t.is_pinned(va, page) == expect
    assert t.pinned_bytes == len(pinned_units) * page
