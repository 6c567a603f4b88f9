"""LatencyDigest: exact ceil-rank order statistics over a typed buffer."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.obs.slo import SLOMonitor
from repro.runtime.metrics import RuntimeMetrics
from repro.util.quantiles import LatencyDigest

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


def test_runtime_metrics_and_slo_monitor_read_the_digest():
    m = RuntimeMetrics()
    lat = [12.0, 3.0, 7.0, 40.0, 5.0]
    for x in lat:
        m.record_get("remote", x)
    m.record_get("local", 99.0)              # not a remote sample
    s = m.summary()
    assert s["remote_get_p50_us"] == ceil_rank(lat, 0.50) == 7.0
    assert s["remote_get_p99_us"] == ceil_rank(lat, 0.99) == 40.0
    assert RuntimeMetrics().summary()["remote_get_p99_us"] == 0.0

    mon = SLOMonitor(target_us=10.0, window_us=100.0)
    for i, x in enumerate(lat):
        mon.observe(float(i), x)
    assert mon.digest.count == len(lat)
    assert mon.digest.p99 == 40.0
