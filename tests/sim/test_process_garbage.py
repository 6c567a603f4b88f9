"""A finished process is freed by reference counting alone.

Every process owns a ``_Wake`` token that names it back.  The process
drops the token when it exits, so however it finished — a timed wait
ran out, a FIFO grant, an event it waited on, ``kill()`` — nothing of
it is left for the cyclic collector once the caller lets go.
"""

import gc

from repro.sim import Resource

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

    def victim():
        yield 100.0

    def killer(proc):
        yield 0.5
        proc.kill("no longer needed")
        gate.succeed(3)

    procs = [sim.process(gen) for gen in
             (sleeper(), holder(), queued(), waiter(), victim())]
    procs.append(sim.process(killer(procs[-1])))
    sim.run()
    assert [p.ok for p in procs] == [True, True, True, True, False, True]
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
