"""Each workload's oracle catches an injected wrong value.

The wrong values are injected by wrapping the *public* entry point the
workload calls, so the benchmark code carries no test hook.
"""

import numpy as np
import pytest

from bench import workloads
from bench.workloads import WORKLOADS
from repro.runtime import UPCThread
from repro.service import KVStore

SCALE = 0.02


def _run(name, seed=5):
    w = WORKLOADS[name]
    return w.run(w.generate(seed, SCALE))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_healthy_run_passes_its_oracle(name):
    out = _run(name)
    assert out.failed == 0
    assert out.ops > 0 and out.nsamples == out.ops
    assert out.sim_op_p99_us >= out.sim_op_p50_us > 0


def _once(flag):
    if flag["armed"]:
        flag["armed"] = False
        return True
    return False


def test_pointer_get_catches_a_wrong_hop(monkeypatch):
    flag = {"armed": True}
    orig = UPCThread.get

    def bad_get(self, array, index, nelems=1):
        value = yield from orig(self, array, index, nelems)
        if self.id == 9 and _once(flag):
            return (int(value) + 1) % array.nelems
        return value

    monkeypatch.setattr(UPCThread, "get", bad_get)
    out = _run("pointer_get")
    assert not flag["armed"]
    assert out.failed > 0


def test_bulk_span_catches_a_wrong_memget(monkeypatch):
    flag = {"armed": True}
    orig = UPCThread.memget

    def bad_memget(self, array, index, nelems):
        got = yield from orig(self, array, index, nelems)
        if _once(flag):
            got = np.array(got)
            got[-1] ^= np.uint64(1)
        return got

    monkeypatch.setattr(UPCThread, "memget", bad_memget)
    out = _run("bulk_span")
    assert not flag["armed"]
    assert out.failed > 0


def test_bulk_span_catches_a_wrong_memput(monkeypatch):
    flag = {"armed": True}
    orig = UPCThread.memput

    def bad_memput(self, array, index, values):
        if _once(flag):
            values = np.array(values)
            values[0] ^= np.uint64(1)
        yield from orig(self, array, index, values)

    monkeypatch.setattr(UPCThread, "memput", bad_memput)
    out = _run("bulk_span")
    assert not flag["armed"]
    assert out.failed > 0


def test_kv_mix_catches_a_wrong_get(monkeypatch):
    flag = {"armed": True}
    orig = KVStore.get

    def bad_get(self, th, key):
        value = yield from orig(self, th, key)
        return value + 1 if _once(flag) else value

    monkeypatch.setattr(KVStore, "get", bad_get)
    out = _run("kv_mix")
    assert not flag["armed"]
    assert out.failed > 0


def test_kv_mix_catches_a_wrong_put(monkeypatch):
    flag = {"armed": True}
    orig = KVStore.put

    def bad_put(self, th, key, value):
        yield from orig(self, th, key, value + 1 if _once(flag) else value)

    monkeypatch.setattr(KVStore, "put", bad_put)
    out = _run("kv_mix")
    assert not flag["armed"]
    assert out.failed > 0


def test_shard_traffic_catches_a_lost_request(monkeypatch):
    orig = workloads.run_kv_traffic

    def lossy(params, **kwargs):
        res = orig(params, **kwargs)
        res.requests -= 1
        return res

    monkeypatch.setattr(workloads, "run_kv_traffic", lossy)
    out = _run("shard_traffic")
    assert out.failed > 0
