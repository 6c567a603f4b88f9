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


@pytest.mark.parametrize("nrows", [0, 1, _DigestFold.CHUNK - 1,
                                   _DigestFold.CHUNK, _DigestFold.CHUNK + 1,
                                   2 * _DigestFold.CHUNK + 7])
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
#: only ``rounds`` and ``channel_bytes`` depend on the layout.
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
    },
    "sick": {
        "digests": {
            0: 16801091919132630448, 1: 9126315356802768896,
            2: 1658533489403169063, 3: 17983140923053144934,
            4: 10850131372211280071, 5: 6802292106010038474,
            6: 11248764116381773551, 7: 8897150015855302818,
            8: 100703117804980192, 9: 6266782820097496953,
            10: 17205594694952545409, 11: 6721524970598798711,
            12: 17464724443459881894, 13: 11454842096361579341,
            14: 717415294424292095, 15: 7229748945884107737},
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
        #: (src, dst) -> (attempts, timeouts, retries, deliveries).
        "links": {
            (0, 0): (291, 0, 0, 291), (0, 1): (550, 303, 303, 247),
            (0, 2): (220, 0, 0, 220), (0, 3): (242, 0, 0, 242),
            (1, 0): (744, 450, 450, 294), (1, 1): (241, 0, 0, 241),
            (1, 2): (230, 0, 0, 230), (1, 3): (235, 0, 0, 235),
            (2, 0): (309, 0, 0, 309), (2, 1): (242, 0, 0, 242),
            (2, 2): (238, 0, 0, 238), (2, 3): (211, 0, 0, 211),
            (3, 0): (284, 0, 0, 284), (3, 1): (251, 0, 0, 251),
            (3, 2): (233, 0, 0, 233), (3, 3): (232, 0, 0, 232)},
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
