"""Digest and result identity of the KV traffic model.

The per-client digests are folded a numpy chunk at a time; these tests
hold that fold to the scalar definition, and pin one healthy and one
lossy run to the values the scalar, dataclass-message implementation
produced (commit e3192c9), across shard layouts.  These pins are the
one door for the traffic model's layout invariance: the lossy run's
per-link health totals, policy decisions and per-shard channel bytes
are pinned with it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, LinkRule, TraceSegment
from repro.workloads.kv_traffic import (TrafficParams, _DigestFold,
                                        run_kv_traffic)
from repro.workloads.sharded import _commute_hash, _commute_hash_rows
from repro.workloads.streams import ClientStream

pytestmark = pytest.mark.shard

_MASK64 = (1 << 64) - 1
_I64 = st.one_of(
    st.integers(-2**63, 2**63 - 1),
    st.integers(2**62, 2**63 - 1),
    st.integers(-2**63, -2**62),
    st.sampled_from([0, 1, -1, 255, 256, 2**32, -2**32]))


@given(st.lists(st.tuples(_I64, _I64, _I64, _I64), max_size=40))
def test_vectorised_hash_equals_scalar_hash_per_row(rows):
    got = _commute_hash_rows(np.array(rows, dtype=np.int64).reshape(-1, 4))
    assert got.dtype == np.uint64
    assert [int(h) for h in got] == [_commute_hash(*r) for r in rows]


_CHUNK = _DigestFold.CHUNK


# Empty, one row, one short of, at and one past the end of the first
# and the fourth chunk, and seven rows into the third and the ninth.
@pytest.mark.parametrize("nrows", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   2 * _CHUNK + 7, 4 * _CHUNK - 1,
                                   4 * _CHUNK, 4 * _CHUNK + 1,
                                   8 * _CHUNK + 7])
def test_chunked_fold_equals_scalar_sum(nrows):
    rng = np.random.default_rng(nrows)
    nclients = 5
    clients = rng.integers(0, nclients - 1, nrows)     # client 4 idle
    vals = rng.integers(-2**63, 2**63 - 1, (nrows, 4), dtype=np.int64)
    vals[::3, 3] |= 2**62                              # large and
    vals[1::3, 0] = -np.abs(vals[1::3, 0] // 2) - 1    # negative words
    want = {}
    fold = _DigestFold(nclients)
    for c, row in zip(clients.tolist(), vals.tolist()):
        want[c] = (want.get(c, 0) + _commute_hash(*row)) & _MASK64
        fold.add(c, *row)
    got = {}
    fold.finish_into(got)
    assert got == want and 4 not in got


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), _I64, st.booleans(),
                          st.booleans(), _I64), max_size=30),
       st.randoms(use_true_random=False))
def test_fold_is_order_independent(effects, rnd):
    def digest(seq):
        fold, out = _DigestFold(3), {}
        for effect in seq:
            fold.add(*effect)
        fold.finish_into(out)
        return out

    shuffled = list(effects)
    rnd.shuffle(shuffled)
    assert digest(effects) == digest(shuffled)


# ---------------------------------------------------------------------
# Pinned runs
# ---------------------------------------------------------------------

SICK = FaultPlan(seed=5, name="sick", links=(
    LinkRule(src=0, dst=1, segments=(
        TraceSegment(t_start=0.0, t_end=1e9, loss=0.35),)),
    LinkRule(src=1, dst=0, segments=(
        TraceSegment(t_start=0.0, t_end=1e9, loss=0.35),)),
))


def _params(case):
    kw = dict(nnodes=4, nclients=16, requests=4000, seed=11)
    if case == "sick":
        kw.update(fault_plan=SICK.to_json(),
                  repair_policy="disable_and_repair")
    return TrafficParams(**kw)


#: Produced by the parent commit, identically for shards in {1, 2, 4};
#: only ``rounds``, ``channel_bytes``, the per-shard counters and
#: ``msgs_routed`` depend on the layout.
PINNED = {
    "healthy": {
        "digests": {
            0: 11820293064308587176, 1: 2309547098040863356,
            2: 9647872090102999950, 3: 7525735450043424205,
            4: 1011653655584264000, 5: 290240735628895203,
            6: 791358643372052822, 7: 16886488616555133705,
            8: 3347522213722547614, 9: 2602766693299923188,
            10: 6748189221942824680, 11: 14710863571298629598,
            12: 16595451936137739088, 13: 17517711988642580269,
            14: 8706753895124122982, 15: 15219087546583938624},
        "hist": {68: 112, 69: 10, 75: 1192, 76: 94, 80: 2528, 81: 16,
                 87: 48},
        "now": 562.3884052178972,
        "events": 12032,
        "rounds": {1: 2, 2: 266, 4: 271},
        #: Per shard, by layout.
        "channel_bytes": {1: [0], 2: [85757, 84922],
                          4: [69784, 65630, 63331, 63807]},
        "counts": {"requests": 4000, "hits": 544, "misses": 3456,
                   "puts": 418, "gets": 3582, "conns": 64,
                   "failures": 0},
        "hist_hit": {68: 112, 69: 10, 75: 422},
        "hist_miss": {75: 770, 76: 94, 80: 2528, 81: 16, 87: 48},
        #: Per shard, by layout: (msgs_sent, msgs_recv, grains,
        #: stall_grains, events, max_backlog).
        "shards": {
            1: [(0, 0, 1, 0, 12032, 16)],
            2: [(2013, 2013, 265, 6, 6175, 84),
                (2013, 2013, 265, 7, 5857, 81)],
            4: [(1596, 1596, 270, 1, 3186, 45),
                (1499, 1499, 270, 2, 2989, 42),
                (1445, 1445, 270, 9, 2929, 40),
                (1456, 1456, 270, 3, 2928, 41)]},
        "msgs_routed": {1: 0, 2: 4026, 4: 5996},
    },
    "sick": {
        #: The request digests and health links moved when node-local
        #: requests stopped drawing fates (they fold no fate chain and
        #: ride no n->n link); everything else is the parent's.
        "digests": {
            0: 2102943751168345041, 1: 4310191883757052445,
            2: 9279621477065800665, 3: 915932217666956942,
            4: 7489786496153294470, 5: 6837394439553864946,
            6: 10758763268178864779, 7: 18174466105659263251,
            8: 14535565162291971388, 9: 17995841925419012900,
            10: 11384221551546188439, 11: 11782833467053607068,
            12: 706530406285177761, 13: 9746751518693902441,
            14: 17005018341354682101, 15: 17101611913912199717},
        "hist": {68: 112, 69: 10, 75: 1135, 76: 94, 80: 2271, 81: 16,
                 83: 11, 84: 2, 87: 43, 99: 92, 102: 31, 109: 68,
                 111: 1, 112: 10, 117: 32, 118: 1, 120: 7, 124: 21,
                 127: 4, 129: 14, 133: 6, 136: 9, 138: 6, 141: 2,
                 143: 1, 148: 1},
        "now": 1275.3919084923843,
        "events": 12032,
        "rounds": {1: 2, 2: 313, 4: 327},
        "channel_bytes": {1: [0], 2: [95358, 93514],
                          4: [78592, 73147, 69709, 70215]},
        "counts": {"requests": 4000, "hits": 544, "misses": 3456,
                   "puts": 418, "gets": 3582, "conns": 64,
                   "failures": 0},
        "hist_hit": {68: 112, 69: 10, 75: 365, 102: 30, 112: 10, 120: 7,
                     127: 4, 138: 3, 141: 1, 143: 1, 148: 1},
        "hist_miss": {75: 770, 76: 94, 80: 2271, 81: 16, 83: 11, 84: 2,
                      87: 43, 99: 92, 102: 1, 109: 68, 111: 1, 117: 32,
                      118: 1, 124: 21, 129: 14, 133: 6, 136: 9, 138: 3,
                      141: 1},
        "shards": {
            1: [(0, 0, 1, 0, 12032, 16)],
            2: [(2013, 2013, 312, 5, 6175, 164),
                (2013, 2013, 312, 52, 5857, 77)],
            4: [(1596, 1596, 326, 22, 3186, 95),
                (1499, 1499, 326, 25, 2989, 69),
                (1445, 1445, 326, 64, 2929, 40),
                (1456, 1456, 326, 58, 2928, 41)]},
        "msgs_routed": {1: 0, 2: 4026, 4: 5996},
        #: (src, dst) -> (attempts, timeouts, retries, deliveries).
        "links": {
            (0, 1): (550, 303, 303, 247), (0, 2): (220, 0, 0, 220),
            (0, 3): (242, 0, 0, 242), (1, 0): (744, 450, 450, 294),
            (1, 2): (230, 0, 0, 230), (1, 3): (235, 0, 0, 235),
            (2, 0): (309, 0, 0, 309), (2, 1): (242, 0, 0, 242),
            (2, 3): (211, 0, 0, 211), (3, 0): (284, 0, 0, 284),
            (3, 1): (251, 0, 0, 251), (3, 2): (233, 0, 0, 233)},
        #: (t_us, src, dst, action, mode, until_us) of each decision.
        "decisions": [
            (500.0, 0, 1, "disable", "disabled", 3000.0),
            (500.0, 1, 0, "disable", "disabled", 3000.0),
            (3000.0, 0, 1, "restore", "normal", 0.0),
            (3000.0, 1, 0, "restore", "normal", 0.0)],
        "policy_digest": 17587731137333694505,
    },
}

_LINK = ("attempts", "timeouts", "retries", "deliveries")
_DECISION = ("t_us", "src", "dst", "action", "mode", "until_us")


@pytest.mark.parametrize("nshards", [1, 2, 4])
@pytest.mark.parametrize("case", ["healthy", "sick"])
def test_results_pinned_to_parent_commit(case, nshards):
    res = run_kv_traffic(_params(case), nshards)
    pin = PINNED[case]
    assert res.digests == pin["digests"]
    assert {int(b): int(res.hist[b])
            for b in np.flatnonzero(res.hist)} == pin["hist"]
    assert res.now == pin["now"]
    assert res.events == pin["events"]
    assert res.extra["run"].rounds == pin["rounds"][nshards]
    assert [m.channel_bytes for m in res.extra["run"].metrics] \
        == pin["channel_bytes"][nshards]
    assert res.requests == 4000
    counts = {k: getattr(res, k) for k in pin["counts"] if k != "failures"}
    counts["failures"] = sum(out["counts"]["failures"]
                             for out in res.extra["run"].outputs)
    assert counts == pin["counts"]
    for name in ("hist_hit", "hist_miss"):
        hist = getattr(res, name)
        assert {int(b): int(hist[b])
                for b in np.flatnonzero(hist)} == pin[name]
    assert [(m.msgs_sent, m.msgs_recv, m.grains, m.stall_grains, m.events,
             m.max_backlog) for m in res.extra["run"].metrics] \
        == pin["shards"][nshards]
    assert res.extra["run"].msgs_routed == pin["msgs_routed"][nshards]
    if case == "sick":
        assert {link: tuple(health[k] for k in _LINK)
                for link, health in res.extra["links"].items()} \
            == pin["links"]
        policy = res.extra["policy"]
        assert policy["name"] == "disable_and_repair"
        assert [tuple(d[k] for k in _DECISION)
                for d in policy["decisions"]] == pin["decisions"]
        assert policy["digest"] == pin["policy_digest"]
    else:
        assert "links" not in res.extra and "policy" not in res.extra


@pytest.mark.parametrize("nshards", [1, 2])
def test_a_run_whose_clients_cross_a_chunk_equals_the_unchunked_run(
        nshards, monkeypatch):
    # The pins stay inside one ClientStream chunk per client; here
    # every client crosses a chunk boundary inside its request loop.
    per_client = ClientStream.CHUNK + 7
    params = TrafficParams(nnodes=4, nclients=32,
                           requests=32 * per_client, seed=3)
    assert params.per_client() == per_client
    chunked = run_kv_traffic(params, nshards)
    monkeypatch.setattr(ClientStream, "CHUNK", per_client + 1)
    whole = run_kv_traffic(params, nshards)
    assert chunked.requests == whole.requests == 32 * per_client
    assert chunked.digests == whole.digests
    assert np.array_equal(chunked.hist, whole.hist)
    assert chunked.now == whole.now
    assert chunked.events == whole.events
