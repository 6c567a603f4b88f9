"""A finished process is freed by reference counting alone.

Every process owns a ``_Wake`` token that names it back.  The process
drops the token when it exits, so however it finished — a timed wait
ran out, a FIFO grant, an event it waited on — nothing of
it is left for the cyclic collector once the caller lets go.

The same holds for a sharded run: each shard's context drops its
program's handlers and finish hooks once the run ends, so the program
state that holds the context back is freed by reference counting too.
"""

import gc

import pytest

from repro.sim import Resource
from repro.workloads.kv_traffic import TrafficParams, run_kv_traffic
from repro.workloads.sharded import run_field_sharded

from tests.sim.reference_core import BOTH_CORES


def _run(core):
    sim = core()
    nic = Resource(sim, capacity=1, name="nic")
    gate = sim.event()

    def sleeper():
        yield 1.5

    def holder():
        yield nic
        yield 2.0
        nic.release()

    def queued():
        yield nic               # FIFO: holder's release passes the slot
        nic.release()

    def waiter():
        return (yield gate)

    def opener():
        yield 0.5
        gate.succeed(3)

    procs = [sim.process(gen) for gen in
             (sleeper(), holder(), queued(), waiter(), opener())]
    sim.run()
    assert all(p.ok for p in procs)
    assert procs[3].value == 3 and nic.in_use == 0


@BOTH_CORES
def test_a_finished_run_leaves_no_cyclic_garbage(core):
    gc.collect()
    gc.disable()
    try:
        _run(core)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("workload", ["traffic", "field"])
def test_a_finished_sharded_run_leaves_no_cyclic_garbage(workload):
    gc.collect()
    gc.disable()
    try:
        if workload == "traffic":
            run_kv_traffic(TrafficParams(nnodes=4, nclients=8,
                                         requests=400), 2)
        else:
            run_field_sharded(16, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()
