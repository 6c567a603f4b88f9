"""Unit tests for pinning policies and piggyback config."""

import pytest

from repro.core import PiggybackMode, PinningPolicy
from repro.core.policy import ranges_to_pin


def test_pin_everything_covers_whole_object():
    # Section 3.1: "the entire memory allocated for a shared object is
    # pinned at once".
    ranges = ranges_to_pin(PinningPolicy.PIN_EVERYTHING,
                           obj_vaddr=0x1000, obj_size=10_000,
                           touch_offset=5, touch_size=8)
    assert ranges == [(0x1000, 10_000)]


def test_chunked_pins_only_touched_chunks():
    ranges = ranges_to_pin(PinningPolicy.CHUNKED,
                           obj_vaddr=0x0, obj_size=100,
                           touch_offset=25, touch_size=2,
                           chunk_bytes=10)
    assert ranges == [(20, 10)]


def test_chunked_touch_spanning_two_chunks():
    ranges = ranges_to_pin(PinningPolicy.CHUNKED,
                           obj_vaddr=0x100, obj_size=100,
                           touch_offset=18, touch_size=4,
                           chunk_bytes=10)
    assert ranges == [(0x100 + 10, 10), (0x100 + 20, 10)]


def test_chunked_final_chunk_clipped_to_object():
    ranges = ranges_to_pin(PinningPolicy.CHUNKED,
                           obj_vaddr=0, obj_size=25,
                           touch_offset=22, touch_size=3,
                           chunk_bytes=10)
    assert ranges == [(20, 5)]


def test_touch_outside_object_rejected():
    with pytest.raises(ValueError):
        ranges_to_pin(PinningPolicy.PIN_EVERYTHING, 0, 10, 8, 4)
    with pytest.raises(ValueError):
        ranges_to_pin(PinningPolicy.CHUNKED, 0, 10, 0, 0)


def test_piggyback_on_data_adds_reply_bytes():
    mode = PiggybackMode.ON_DATA
    assert mode.wants_address
    assert not mode.needs_dedicated_fetch
    assert mode.reply_extra_bytes == 16


def test_piggyback_explicit_needs_fetch():
    mode = PiggybackMode.EXPLICIT
    assert mode.needs_dedicated_fetch
    assert mode.reply_extra_bytes == 0


def test_piggyback_disabled_requests_nothing():
    mode = PiggybackMode.DISABLED
    assert not mode.wants_address
