"""Properties of the traffic generator's statistics (satellite 2).

Hypothesis-driven checks that the synthetic load is what it claims:
Zipfian keys with the configured rank-frequency slope, Poisson
arrivals with the configured inter-arrival mean, and entity-keyed
random streams that are byte-identical across shard layouts (the
foundation of the harness's layout invariance).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import hist_quantile
from repro.util.rng import StreamFamily
from repro.workloads.kv_traffic import (
    HIST_BINS,
    TrafficParams,
    hist_edges,
    run_kv_traffic,
)
from repro.workloads.streams import (ClientStream, PoissonArrivals,
                                     ZipfianKeys)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       s=st.sampled_from([0.7, 0.9, 1.1, 1.3]))
def test_zipf_rank_frequency_slope(seed, s):
    """log(freq) vs log(rank) over the head of the distribution must
    regress to slope -s (rank order is key order by construction)."""
    n = 200_000
    keys = ZipfianKeys(1024, s).draw(np.random.default_rng(seed), n)
    counts = np.bincount(keys, minlength=1024)
    head = 32
    freq = counts[:head] / n
    assert freq.min() > 0
    slope = np.polyfit(np.log(np.arange(1, head + 1)),
                       np.log(freq), 1)[0]
    assert abs(slope + s) < 0.1, f"slope {slope:.3f} for s={s}"


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       mean=st.floats(0.5, 50.0))
def test_poisson_interarrival_mean(seed, mean):
    n = 100_000
    proc = PoissonArrivals(mean)
    gaps = proc.gaps(np.random.default_rng(seed), n)
    assert (gaps > 0).all()
    assert abs(gaps.mean() - mean) / mean < 0.05
    sched = proc.schedule(np.random.default_rng(seed), n)
    assert np.allclose(np.diff(sched), gaps[1:])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_entity_keyed_streams_are_layout_invariant(seed):
    """Different shard layouts instantiate clients in different orders
    and on different shards; per-client draws must not care."""
    fam_a = StreamFamily(seed, "kv-traffic")
    fam_b = StreamFamily(seed, "kv-traffic")
    clients = [0, 1, 2, 3, 4, 5]
    draws_a = {c: fam_a.child("keys").rng(c).random(64).tobytes()
               for c in clients}
    draws_b = {c: fam_b.child("keys").rng(c).random(64).tobytes()
               for c in reversed(clients)}
    assert draws_a == draws_b


@pytest.mark.parametrize("n", [1, ClientStream.CHUNK,
                               2 * ClientStream.CHUNK + 7])
def test_client_stream_chunks_equal_whole_run_draws(n):
    """A client draws its requests a chunk at a time; the concatenated
    chunks must be bit-identical to drawing the whole run at once."""
    fam = StreamFamily(7, "kv-traffic")
    arrivals, keys = PoissonArrivals(2.0), ZipfianKeys(4096, 1.2)
    stream = ClientStream(fam, 3, n, arrivals, keys, 0.1)
    chunks = [stream.take() for _ in range(0, n, ClientStream.CHUNK)]
    whole = (arrivals.schedule(fam.child("arrivals").rng(3), n),
             keys.draw(fam.child("keys").rng(3), n),
             fam.child("ops").rng(3).random(n) < 0.1)
    for i, want in enumerate(whole):
        got = np.concatenate([chunk[i] for chunk in chunks])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_zipf_identical_streams_for_identical_seeds():
    z = ZipfianKeys(512, 0.9)
    a = z.draw(StreamFamily(7, "kv-traffic").child("keys").rng(3), 1000)
    b = z.draw(StreamFamily(7, "kv-traffic").child("keys").rng(3), 1000)
    assert np.array_equal(a, b)


def test_hist_quantile_geometry():
    edges = hist_edges()
    assert len(edges) == HIST_BINS + 1
    assert np.all(np.diff(edges) > 0)
    hist = np.zeros(HIST_BINS, dtype=np.int64)
    hist[10] = 100
    q = hist_quantile(hist, 0.5)
    assert edges[10] < q <= edges[11] or q == edges[11]
    assert hist_quantile(np.zeros(HIST_BINS, dtype=np.int64), 0.5) == 0.0


@pytest.mark.shard
def test_traffic_run_is_shard_layout_invariant():
    p = TrafficParams(nnodes=4, nclients=8, nkeys=256, nbuckets=64,
                      requests=4000, seed=3)
    a = run_kv_traffic(p, nshards=1)
    b = run_kv_traffic(p, nshards=2)
    assert a.requests == b.requests == 4000
    assert a.digests == b.digests
    assert np.array_equal(a.hist, b.hist)
    assert np.array_equal(a.hist_hit, b.hist_hit)
    assert np.array_equal(a.hist_miss, b.hist_miss)
    assert a.quantiles() == b.quantiles()
    assert a.conns == b.conns
