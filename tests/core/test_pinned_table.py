"""Unit tests for the pinned address table."""

import pytest

from repro.core import PinnedAddressTable, PinningPolicy
from repro.core.policy import ranges_to_pin
from repro.memory import PinManager
from repro.obs import PIN, EventLog


def make_table(**kw):
    pm = PinManager(0, **kw)
    return PinnedAddressTable(pm), pm


def test_register_pins_and_costs_once():
    t, pm = make_table()
    c1, ok1 = t.register("h", 0x1000, 8192)
    c2, ok2 = t.register("h", 0x1000, 8192)
    assert ok1 and ok2
    assert c1 > 0 and c2 == 0.0
    assert t.is_pinned(0x1000, 8192)
    assert len(t) == 1
    assert t.entry_count_for("h") == 1


def test_register_failure_returns_flag_and_error():
    t, pm = make_table(max_total_bytes=4096)
    cost, ok = t.register("h", 0x1000, 8192)
    assert not ok and cost == 0.0
    assert t.last_pin_error is not None
    assert len(t) == 0 and not t.is_pinned(0x1000, 8192)


def test_unpinnable_mark_cleared_on_unregister():
    t, _ = make_table()
    t.mark_unpinnable("h")
    assert t.is_unpinnable("h") and t.unpinnable_count == 1
    t.unregister_handle("h")
    assert not t.is_unpinnable("h") and t.unpinnable_count == 0


def test_lookup_phys_only_for_pinned():
    t, _ = make_table()
    assert t.lookup_phys(0x5000) is None
    t.register("h", 0x5000, 4096)
    base = t.lookup_phys(0x5000)
    assert base is not None
    assert t.lookup_phys(0x5010) == base + 0x10


def test_chunked_registration_creates_multiple_entries():
    # LAPI-style 32MB handle cap ⇒ several PinnedEntry rows per object.
    t, _ = make_table(max_region_bytes=4096)
    t.register("big", 0x10_000, 3 * 4096)
    assert len(t) == 3
    assert t.entry_count_for("big") == 3


def test_unregister_handle_unpins_and_reports():
    t, pm = make_table()
    t.register("h", 0x1000, 4096)
    t.register("i", 0x9000, 4096)
    cost, removed = t.unregister_handle("h")
    assert cost > 0 and removed == 1
    assert not t.is_pinned(0x1000, 4096)
    assert t.is_pinned(0x9000, 4096)
    assert len(t) == 1


def test_unregister_unknown_handle_is_noop():
    t, _ = make_table()
    cost, removed = t.unregister_handle("ghost")
    assert cost == 0.0 and removed == 0


def test_time_accounting():
    t, _ = make_table()
    t.register("h", 0x1000, 4096)
    t.unregister_handle("h")
    assert t.pin_time_us > 0
    assert t.unpin_time_us > t.pin_time_us  # dereg costs more (3.3)


def test_lookup_phys_raises_on_a_programming_error():
    # Only "not pinned" means None; anything else is a bug to surface.
    t, _ = make_table()
    t.register("h", 0x1000, 4096)
    with pytest.raises((TypeError, ValueError)):
        t.lookup_phys("0x1000")


# -- the already-pinned shortcut is exact -----------------------------


def test_region_unpinned_behind_the_tables_back_is_repinned_at_full_cost():
    t, pm = make_table()
    c1, _ = t.register("h", 0x1000, 8192)
    pm.unpin(0x1000, 8192)  # e.g. a pin-down cache eviction
    c2, ok = t.register("h", 0x1000, 8192)
    assert ok and c2 == c1 > 0
    assert pm.pin_calls == 2 and t.pin_time_us == 2 * c1
    assert t.is_pinned(0x1000, 8192)


def test_region_pinned_by_another_owner_is_tabled_with_a_zero_cost_pin():
    t, pm = make_table()
    t.events, t.node_id = EventLog(), 0
    pm.pin(0x1000, 8192)  # the pin-down cache got there first
    cost, ok = t.register("h", 0x1000, 8192)
    assert ok and cost == 0.0
    assert len(t) == 1 and t.entry_count_for("h") == 1
    [pin] = t.events.by_kind(PIN)
    assert pin.attrs["cost"] == 0.0 and pin.attrs["regions"] == 1
    # Now tabled: the repeat is the shortcut, and records nothing.
    assert t.register("h", 0x1000, 8192) == (0.0, True)
    assert len(t.events.by_kind(PIN)) == 1


def test_chunked_touches_pin_each_new_chunk_once():
    t, pm = make_table()
    base, size, chunk = 0x10_000, 4 * 4096, 4096

    def touch(offset):
        for vaddr, span in ranges_to_pin(PinningPolicy.CHUNKED, base, size,
                                         offset, 8, chunk_bytes=chunk):
            assert t.register("h", vaddr, span)[1]

    touch(0)
    assert pm.pin_calls == 1
    touch(2 * chunk + 16)
    assert pm.pin_calls == 2 and t.is_pinned(base + 2 * chunk, chunk)
    spent = t.pin_time_us
    touch(2 * chunk + 64)
    assert pm.pin_calls == 2 and t.pin_time_us == spent
    assert not t.is_pinned(base + chunk, chunk)
