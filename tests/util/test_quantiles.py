"""The one latency account: the ceil-rank ``quantile`` rule, the
``LatencyDigest`` built on it, and every reader that reports a
percentile through them."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.breakdown import OpBreakdown, summarize
from repro.obs.events import (OP_BEGIN, OP_END, XSHARD_RECV, XSHARD_SEND,
                              EventLog)
from repro.obs.report import op_latency_table, xshard_stats
from repro.obs.states import StateRecord, find_outliers
from repro.runtime.metrics import RuntimeMetrics
from repro.util.quantiles import LatencyDigest, quantile

QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def ceil_rank(data, q):
    """The rule, spelled with a full sort: the reference."""
    data = sorted(data)
    return data[math.ceil(q * (len(data) - 1))]


def digest_of(data):
    d = LatencyDigest()
    for x in data:
        d.add(float(x))
    return d


def assert_exact(data):
    d = digest_of(data)
    assert d.count == len(data)
    for name, q in QUANTILES:
        assert getattr(d, name) == ceil_rank(data, q), (
            f"n={len(data)} {name}")


def test_exact_for_few_samples():
    d = LatencyDigest()
    assert (d.count, d.p50, d.p95, d.p99) == (0, 0.0, 0.0, 0.0)
    for x in (5.0, 1.0, 3.0):
        d.add(x)
    assert d.p50 == 3.0   # exact median of 3 samples


def test_small_sample_uses_ceil_rank():
    # p50 of two samples is the *upper* one: round-half-even would
    # pick index round(0.5) == 0 (the regression this pins down).
    assert digest_of([1.0, 9.0]).p50 == 9.0
    # p95 of four samples is the maximum (ceil(0.95 * 3) == 3);
    # round-half-even sent it to the 3rd sample.
    assert digest_of([4.0, 1.0, 3.0, 2.0]).p95 == 4.0


def test_small_sample_matches_ceil_rank_rule_everywhere():
    for n in range(1, 201):
        assert_exact([float(7 * i % 31) for i in range(n)])


def test_median_of_uniform_stream():
    assert_exact(np.random.default_rng(1).random(20_000).tolist())


def test_p99_of_exponential_stream():
    # A run's worth of samples: still one observation, not an estimate.
    assert_exact(np.random.default_rng(2).exponential(1.0, 100_000).tolist())


def test_monotone_stream_exact():
    d = digest_of(range(1, 1002))
    assert (d.p50, d.p95, d.p99) == (501.0, 951.0, 991.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=400))
def test_property_estimate_within_observed_range(data):
    d = digest_of(data)
    for name, _ in QUANTILES:
        assert min(data) <= getattr(d, name) <= max(data)
        assert getattr(d, name) in data      # a real observation
    assert_exact(data)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3, 4, 5, 7, 12, 33, 100, 470, 1000,
                        4000, 10000]),
       st.integers(0, 2**31 - 1))
def test_property_digest_tracks_exact_quantiles(n, seed):
    """p50/p95/p99 against the sorted array and against numpy's own
    ``higher`` rule, across stream sizes 1..10_000; reading twice and
    adding in between must not disturb the buffer."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        data = rng.exponential(50.0, n)
    else:
        data = np.clip(rng.normal(100.0, 15.0, n), 0.0, None)
    d = digest_of(data[:n // 2])
    d.p99                       # a read mid-stream
    for x in data[n // 2:]:
        d.add(float(x))
    assert d.count == n
    for name, q in QUANTILES:
        assert getattr(d, name) == ceil_rank(data.tolist(), q)
        assert getattr(d, name) == float(
            np.quantile(data, q, method="higher"))


def test_latency_digest_bundle():
    d = digest_of(range(1, 1001))
    assert d.count == 1000
    assert (d.p50, d.p95, d.p99) == (501.0, 951.0, 991.0)
    assert d.summary() == "p50=501.00 p95=951.00 p99=991.00 (n=1000)"
    assert LatencyDigest().summary() == "p50=0.00 p95=0.00 p99=0.00 (n=0)"


def test_runtime_metrics_read_the_digest():
    m = RuntimeMetrics()
    lat = [12.0, 3.0, 7.0, 40.0, 5.0]
    for x in lat:
        m.get_remote.add(x)
    m.get_local.add(99.0)                    # not a remote sample
    s = m.summary()
    assert s["remote_get_p50_us"] == ceil_rank(lat, 0.50) == 7.0
    assert s["remote_get_p99_us"] == ceil_rank(lat, 0.99) == 40.0
    assert (s["remote_gets"], s["local_accesses"]) == (5, 1)
    assert s["remote_get_mean_us"] == 13.4
    assert m.get_remote.max == 40.0
    assert RuntimeMetrics().summary()["remote_get_p99_us"] == 0.0


def test_quantile_rule_at_its_edges():
    assert quantile([], 0.5) == 0.0
    assert quantile(array("d", [3.0, 1.0, 2.0]), 0.0) == 1.0
    assert quantile([3.0, 1.0, 2.0], 1.0) == 3.0
    for q in (-0.01, 1.01):
        for samples in ([], [1.0]):
            with pytest.raises(ValueError):
                quantile(samples, q)


def test_digest_mean_total_and_max_come_from_the_samples():
    empty = LatencyDigest()
    assert (empty.total, empty.mean, empty.max) == (0.0, 0.0, 0.0)
    d = digest_of([0.1] * 10)
    # Correctly rounded: a running sum of ten 0.1s is 0.9999999999999999.
    assert sum([0.1] * 10) != 1.0
    assert (d.total, d.mean, d.max) == (1.0, 0.1, 0.1)


# -- one door: every reader of a latency uses the rule above ----------------

def _metrics_summary(samples):
    m = RuntimeMetrics()
    for x in samples:
        m.get_remote.add(x)
    s = m.summary()
    return {0.50: s["remote_get_p50_us"], 0.99: s["remote_get_p99_us"]}


def _op_latency_table(samples):
    log = EventLog()
    for x in samples:
        op = log.next_op_id()
        log.emit(0.0, OP_BEGIN, op=op, thread=0, name="get")
        log.emit(x, OP_END, op=op, thread=0, proto="rdma")
    (row,) = op_latency_table(log)
    return {0.50: row["p50_us"], 0.99: row["p99_us"]}


def _xshard_stats(samples):
    log = EventLog()
    for seq, x in enumerate(samples):
        log.emit(0.0, XSHARD_SEND, src=0, seq=seq)
        log.emit(x, XSHARD_RECV, src=0, seq=seq)
    st_ = xshard_stats(log)
    return {0.50: st_["latency_p50_us"], 0.99: st_["latency_p99_us"]}


def _breakdown(samples):
    wire = summarize(OpBreakdown(op=i, name="get", proto="rdma", thread=0,
                                 node=0, t0=0.0, t1=x, wire=x)
                     for i, x in enumerate(samples)).by_component["wire"]
    return {0.50: wire.p50, 0.95: wire.p95, 0.99: wire.p99}


def _outlier_threshold(samples):
    # find_outliers flags durations strictly above its threshold, so
    # the largest unflagged duration is the threshold when the rule
    # returns an observed sample.
    recs = [StateRecord(0, "get:rdma", 0.0, x) for x in samples]
    out = {}
    for q in (0.50, 0.95, 0.99):
        flagged = {r.duration for r in find_outliers(recs, "get:rdma",
                                                     p=round(q * 100))}
        out[q] = max(x for x in samples if x not in flagged)
    return out


def _digest(samples):
    d = digest_of(samples)
    return {0.50: d.p50, 0.95: d.p95, 0.99: d.p99}


ONE_DOOR_READERS = {
    "RuntimeMetrics.summary": _metrics_summary,
    "op_latency_table": _op_latency_table,
    "xshard_stats": _xshard_stats,
    "breakdown.summarize": _breakdown,
    "find_outliers": _outlier_threshold,
    "LatencyDigest": _digest,
}


@pytest.mark.parametrize("reader", sorted(ONE_DOOR_READERS))
@pytest.mark.parametrize("n", [1, 2, 4, 5, 100])
def test_every_reader_uses_the_one_rule(reader, n):
    # Distinct, unsorted samples: a reader that interpolates or rounds
    # the rank another way lands on a different value.
    samples = np.random.default_rng(n).exponential(10.0, n).tolist()
    got = ONE_DOOR_READERS[reader](samples)
    for q in (0.50, 0.95, 0.99):
        if q in got:
            assert got[q] == float(np.quantile(samples, q,
                                               method="higher")), q
