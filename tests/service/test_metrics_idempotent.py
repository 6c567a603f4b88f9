"""``RuntimeMetrics.summary()`` must be a pure read (satellite 3).

The rollups fold shard metrics afresh every call; a regression that mutates state while summarizing (or double-counts on
re-attach) would silently skew every table the harness renders.
"""

import pytest

from repro.network import GM_MARENOSTRUM
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.metrics import RuntimeMetrics
from repro.service import kv_create
from repro.testing import generate_service_program

from tests.sim.shard_referees import run_corpus_sharded


def test_summary_idempotent_on_fresh_metrics():
    m = RuntimeMetrics()
    assert m.summary() == m.summary()


def test_summary_idempotent_after_real_run():
    def kernel(th):
        store = yield from kv_create(th, nbuckets=8, slots_per_bucket=2)
        yield from store.put(th, th.id, th.id + 1)
        yield from th.barrier()
        yield from store.get(th, (th.id + 3) % th.nthreads)
        yield from th.barrier()

    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8,
                               threads_per_node=2))
    rt.spawn(kernel)
    rt.run()
    gets = rt.metrics.get_remote.count
    first = rt.metrics.summary()
    second = rt.metrics.summary()
    assert first == second
    # The digest behind the summary must not have been fed by the
    # summary call itself.
    assert rt.metrics.get_remote.count == gets == first["remote_gets"]


@pytest.mark.shard
def test_summary_idempotent_with_shard_rollups():
    program = generate_service_program(3, n_ops=60)
    out = run_corpus_sharded(program, 2)
    m = RuntimeMetrics()
    m.attach_shards(out["run"].metrics)
    first = m.summary()
    assert set(first) >= {"shards", "shard_events_total", "sync_rounds"}
    assert first["shards"] == 2
    assert first == m.summary()
    # Re-attaching the same shard list replaces it — no double count.
    m.attach_shards(out["run"].metrics)
    assert m.summary() == first
    assert m.shard_summary() == m.shard_summary()
