"""Traced vs untraced and mp vs inproc are compared, not assumed."""

import pytest

from bench.child import IdentityError, require_identical
from bench.workloads import WORKLOADS
from repro.obs import EventLog

SCALE = 0.02


@pytest.mark.parametrize("name", ["pointer_get", "bulk_span", "kv_mix"])
def test_traced_run_reproduces_untraced(name):
    w = WORKLOADS[name]
    inputs = w.generate(5, SCALE)
    plain = w.run(inputs)
    log = EventLog()
    traced = w.run(inputs, events=log, traced=True)
    assert len(log) > 0
    require_identical("traced vs untraced", plain.exact(), traced.exact())


def test_shard_traffic_mp_equals_traced_inproc():
    w = WORKLOADS["shard_traffic"]
    inputs = w.generate(5, SCALE)
    mp = w.run(inputs)                       # 2 worker processes
    inproc = w.run(inputs, traced=True)      # in-process, recorders on
    assert inproc.shard_trace[0] > 0 and inproc.shard_trace[1] == 0
    assert mp.digest == inproc.digest and len(mp.digest) == 32
    require_identical("mp vs inproc", mp.exact(), inproc.exact())
    assert 0 < mp.host["busy_share"] <= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_run(name):
    w = WORKLOADS[name]
    a = w.run(w.generate(5, SCALE), traced=name == "shard_traffic")
    b = w.run(w.generate(5, SCALE), traced=name == "shard_traffic")
    require_identical("same seed", a.exact(), b.exact())
    c = w.run(w.generate(6, SCALE), traced=name == "shard_traffic")
    with pytest.raises(IdentityError):
        require_identical("other seed", a.exact(), c.exact())


def test_cache_off_companion_computes_the_same_answer():
    w = WORKLOADS["pointer_get"]
    inputs = w.generate(5, 0.1)
    on, off = w.run(inputs), w.run(inputs, cache=False)
    assert on.digest == off.digest and off.failed == 0
    assert off.sim_elapsed_us > on.sim_elapsed_us
    assert off.counters["core.cache_hit_rate"] == 0
