"""Dedup ledger and backoff schedule — pure units, no simulator."""

import pytest

from repro.faults import DedupLedger, ReliabilityConfig


# ---------------------------------------------------------------------------
# Backoff schedule
# ---------------------------------------------------------------------------

def test_backoff_schedule_is_capped_exponential():
    r = ReliabilityConfig(backoff_base_us=4.0, backoff_factor=2.0,
                          backoff_max_us=128.0)
    schedule = [r.backoff_us(k) for k in range(8)]
    assert schedule == [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 128.0, 128.0]


def test_backoff_is_deterministic():
    a = ReliabilityConfig()
    b = ReliabilityConfig()
    assert [a.backoff_us(k) for k in range(10)] == \
           [b.backoff_us(k) for k in range(10)]


@pytest.mark.parametrize("kw", [
    dict(am_timeout_us=0.0),
    dict(rdma_timeout_us=-1.0),
    dict(max_retries=-1),
    dict(backoff_factor=0.5),
    dict(backoff_base_us=10.0, backoff_max_us=5.0),
    dict(ledger_capacity=0),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        ReliabilityConfig(**kw)


# ---------------------------------------------------------------------------
# Dedup ledger
# ---------------------------------------------------------------------------

def test_ledger_first_record_wins():
    led = DedupLedger()
    key = (0, 17)
    assert led.get(key) is None
    led.record(key, {"base": 0x1000}, 16)
    led.record(key, {"base": 0xBAD}, 99)   # replay must not overwrite
    assert led.get(key) == ({"base": 0x1000}, 16)
    assert led.records == 1


def test_ledger_counts_hits():
    led = DedupLedger()
    led.record((1, 1), "x", 0)
    assert led.hits == 0
    led.get((1, 1))
    led.get((1, 1))
    led.get((2, 2))        # miss: not counted as a hit
    assert led.hits == 2


def test_ledger_fifo_eviction():
    led = DedupLedger(capacity=3)
    for seq in range(5):
        led.record((0, seq), seq, 0)
    assert led.records - led.evictions == 3
    assert led.evictions == 2
    # The two oldest aged out; the newest three survive.
    assert led.get((0, 0)) is None and led.get((0, 1)) is None
    assert all(led.get((0, s)) is not None for s in (2, 3, 4))


def test_ledger_rejects_zero_capacity():
    with pytest.raises(ValueError):
        DedupLedger(capacity=0)
