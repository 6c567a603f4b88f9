"""Failure paths of the ``mp`` backend: whichever worker dies, however
it dies, ``run()`` raises a :class:`ShardedError` naming the shard, in
bounded time, and leaves no worker process behind."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.sim.shard import ShardedError, ShardedSimulator

pytestmark = pytest.mark.shard

#: Generous against a loaded CI box; the point is "not the 5 s join
#: timeout, and never a hang".
BOUND_S = 2.0


def _ticker(ctx, n, victim=None, die_at=None):
    """Ping the next shard every µs; on shard ``victim`` SIGKILL our
    own process mid-run — no handler, no flush, no goodbye."""
    for i in range(n):
        yield 1.0
        ctx.send((ctx.shard + 1) % ctx.nshards, "ping", i, latency=2.0)
        if ctx.shard == victim and i == die_at:
            os.kill(os.getpid(), signal.SIGKILL)


def build_suicidal(ctx, victim):
    ctx.on_message("ping", lambda payload: None)
    ctx.spawn(_ticker(ctx, 100_000, victim, die_at=50), name="ticker")


def build_builder_raises(ctx, victim):
    if ctx.shard == victim:
        raise RuntimeError("builder boom")


def build_handler_raises(ctx, victim):
    def on_ping(payload):
        if ctx.shard == victim and payload == 5:
            raise ValueError("handler boom")

    ctx.on_message("ping", on_ping)
    ctx.spawn(_ticker(ctx, 100), name="ticker")


def build_unpicklable(ctx, victim):
    if ctx.shard == victim:
        ctx.publish("oops", lambda: None)


def _run_expecting_error(builder, victim, nshards=3, mp_context=None):
    sharded = ShardedSimulator(nshards, lookahead=2.0, mode="mp",
                               mp_context=mp_context)
    t0 = time.perf_counter()
    with pytest.raises(ShardedError) as info:
        sharded.run(builder, {"victim": victim})
    took = time.perf_counter() - t0
    assert multiprocessing.active_children() == []
    return str(info.value), took


@pytest.mark.parametrize("victim", [0, 1, 2], ids=["lead", "peer", "last"])
def test_sigkilled_worker_is_named_in_bounded_time(victim):
    text, took = _run_expecting_error(build_suicidal, victim)
    assert text == f"shard {victim} worker exited unexpectedly"
    assert took < BOUND_S


@pytest.mark.parametrize("victim", [0, 1], ids=["lead", "peer"])
def test_sigkilled_worker_under_spawn(victim):
    # Spawned children do not inherit pipe ends; the same detection
    # must hold (the bound is looser: three interpreters start).
    text, took = _run_expecting_error(build_suicidal, victim, nshards=2,
                                      mp_context="spawn")
    assert text == f"shard {victim} worker exited unexpectedly"
    assert took < 3 * BOUND_S


@pytest.mark.parametrize("victim", [0, 1], ids=["lead", "peer"])
def test_builder_exception_carries_shard_and_traceback(victim):
    text, took = _run_expecting_error(build_builder_raises, victim)
    assert text.startswith(f"shard {victim} failed:")
    assert "RuntimeError: builder boom" in text
    assert "build_builder_raises" in text          # a real traceback
    assert took < BOUND_S


@pytest.mark.parametrize("victim", [0, 2], ids=["lead", "peer"])
def test_handler_exception_mid_run(victim):
    text, took = _run_expecting_error(build_handler_raises, victim)
    assert text.startswith(f"shard {victim} failed:")
    assert "ValueError: handler boom" in text
    assert took < BOUND_S


def test_unpicklable_output_is_an_error_not_a_hang():
    text, took = _run_expecting_error(build_unpicklable, victim=1,
                                      nshards=2)
    assert text.startswith("shard 1 failed:")
    assert took < BOUND_S


def test_healthy_run_leaves_no_children():
    run = ShardedSimulator(3, lookahead=2.0, mode="mp").run(
        build_handler_raises, {"victim": None})
    assert run.nshards == 3 and run.msgs_routed == 300
    assert multiprocessing.active_children() == []
