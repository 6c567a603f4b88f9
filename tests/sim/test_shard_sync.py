"""Unit tests of the sharded-core building blocks: conservative sync
arithmetic, topology-derived lookahead, bounded drains, per-shard RNG
stream splitting, shard collectives, and the metrics rollups."""

import pickle

import numpy as np
import pytest

from repro.network.params import MACHINES
from repro.network.partition import lookahead_matrix, partition_nodes
from repro.runtime.collectives import dissemination_cost_us
from repro.runtime.metrics import RuntimeMetrics
from repro.sim.errors import SimulationError
from repro.sim.shard import ShardContext, ShardedSimulator
from repro.sim.simulator import Simulator
from repro.sim.sync import (INF, BarrierPost, GrainPlan, ShardMetrics,
                            ShardReport, SyncCoordinator, SyncDeadlock,
                            SyncError, normalize_lookahead,
                            shard_summary)
from repro.util.rng import StreamFamily

from tests.sim.drive import timer
from tests.sim.reference_core import ReferenceSimulator
from tests.sim.shard_referees import ShardFence

pytestmark = pytest.mark.shard

GM = MACHINES["gm"]


# ---------------------------------------------------------------------------
# Lookahead normalization + partitioning
# ---------------------------------------------------------------------------

def test_normalize_lookahead_scalar_and_matrix():
    la = normalize_lookahead(2.5, 3)
    assert la == [[2.5] * 3] * 3
    same = normalize_lookahead(la, 3)
    assert same == la


def test_normalize_lookahead_rejects_bad_shapes_and_values():
    with pytest.raises(SyncError):
        normalize_lookahead([[1.0]], 2)
    with pytest.raises(SyncError):
        normalize_lookahead([[0.0, 0.0], [1.0, 0.0]], 2)  # off-diag 0


def test_partition_nodes_balanced_contiguous():
    part = partition_nodes(10, 4)
    assert [part.range_of(s)[1] - part.range_of(s)[0]
            for s in range(4)] == [3, 3, 2, 2]
    covered = []
    for s in range(4):
        lo, hi = part.range_of(s)
        covered.extend(range(lo, hi))
        for n in range(lo, hi):
            assert part.shard_of(n) == s
    assert covered == list(range(10))


def test_lookahead_matrix_marenostrum_adjacent_groups():
    # 256 nodes / 4 shards on the Myrinet Clos: adjacent shards share
    # a group boundary (5 hops never needed); closest cross pair is
    # linecard-to-linecard inside a group -> 3 hops.
    part = partition_nodes(256, 4)
    la = lookahead_matrix(GM, 256, part)
    hop3 = GM.wire_base_us + 3 * GM.wire_per_hop_us
    assert la[0][1] == pytest.approx(hop3)
    assert la[1][0] == pytest.approx(hop3)
    assert la[0][0] == 0.0
    for row in la:
        for x in row[1:]:
            assert x == 0.0 or x >= hop3


# ---------------------------------------------------------------------------
# Coordinator horizon arithmetic
# ---------------------------------------------------------------------------

def _report(shard, next_time, sent=(), barriers=()):
    # A shard reports one outbox per destination, up to the last one
    # it sent to.
    ndst = 1 + max((m[3] for m in sent), default=-1)
    outboxes = [[m for m in sent if m[3] == dst] for dst in range(ndst)]
    return ShardReport(shard=shard, next_time=next_time,
                       sent=outboxes, barriers=list(barriers))


def test_horizon_uses_peer_floor_plus_lookahead():
    coord = SyncCoordinator(2.0, 2)
    plans = coord.round([_report(0, 10.0), _report(1, 11.0)])
    assert plans[0].horizon == pytest.approx(13.0)  # 11 + 2
    assert plans[1].horizon == pytest.approx(12.0)  # 10 + 2


def test_horizon_bounds_drained_peer_by_wakeup_chain():
    # Shard 1 is drained (inf queue) but shard 0 can wake it: shard
    # 1's floor relaxes to eff0 + L, and shard 0's own horizon must
    # stay below the earliest possible *reply* (round trip), not inf.
    coord = SyncCoordinator(2.0, 2)
    plans = coord.round([_report(0, 10.0), _report(1, INF)])
    assert plans[1].horizon == pytest.approx(12.0)   # 10 + 2
    assert plans[0].horizon == pytest.approx(14.0)   # (10 + 2) + 2


def _msg(arrival, src, seq, dst, payload=None):
    # the wire format: (arrival, src, seq, dst, kind, nbytes, payload)
    return (arrival, src, seq, dst, "m", 8, payload)


def test_messages_route_by_destination_in_arrival_order():
    coord = SyncCoordinator(2.0, 2)
    late, early = _msg(9.0, 0, 1, 1, "late"), _msg(7.0, 0, 2, 1, "early")
    back = _msg(8.0, 1, 1, 0)
    plans = coord.round([_report(0, 20.0, sent=[late, early]),
                         _report(1, 20.0, sent=[back])])
    assert plans[1].deliver == [early, late]
    assert plans[0].deliver == [back]
    assert coord.msgs_routed == 3
    # An incoming message floors its destination's effective time.
    assert plans[0].horizon == pytest.approx(7.0 + 2.0)
    assert plans[1].horizon == pytest.approx(8.0 + 2.0)


def test_equal_arrival_messages_deliver_in_src_seq_order():
    coord = SyncCoordinator(2.0, 3)
    from1 = [_msg(5.0, 1, 2, 0, "1b"), _msg(5.0, 1, 1, 0, "1a")]
    from2 = [_msg(5.0, 2, 1, 0, "2a"), _msg(4.0, 2, 2, 0, "first")]
    # Reports arrive in shard order, but neither that nor the order a
    # shard sent in decides delivery: (arrival, src, seq) does.
    plans = coord.round([_report(0, 20.0), _report(1, 20.0, sent=from1),
                         _report(2, 20.0, sent=from2)])
    assert [m[6] for m in plans[0].deliver] == ["first", "1a", "1b", "2a"]
    # Payloads never take part in the ordering (dicts do not compare).
    clash = [_msg(5.0, 1, 3, 0, {"x": 1}), _msg(5.0, 2, 3, 0, {"x": 0})]
    coord.round([_report(0, 20.0), _report(1, 20.0, sent=clash[:1]),
                 _report(2, 20.0, sent=clash[1:])])


def test_batch_is_pickled_once_and_its_length_is_channel_bytes():
    coord = SyncCoordinator(2.0, 2)
    sent = [_msg(7.0, 0, 1, 1, (3, True)), _msg(8.0, 0, 2, 1, (4, False))]
    plans = coord.round([_report(0, 20.0, sent=sent), _report(1, 20.0)])
    assert plans[0].deliver == [] and plans[1].deliver == sent
    assert coord.channel_bytes == [
        0, len(pickle.dumps(sent, pickle.HIGHEST_PROTOCOL))]
    with pytest.raises(SyncError, match="unknown shard 2"):
        coord.round([_report(0, 20.0, sent=[_msg(9.0, 0, 3, 2)]),
                     _report(1, 20.0)])


def test_all_drained_terminates():
    coord = SyncCoordinator(2.0, 2)
    plans = coord.round([_report(0, INF), _report(1, INF)])
    assert all(p.done for p in plans)


def test_collective_release_at_max_arrival_plus_cost():
    coord = SyncCoordinator(2.0, 2)
    post0 = BarrierPost(name="b@0", count=1, t_last=5.0, expected=2,
                        cost=1.5)
    post1 = BarrierPost(name="b@0", count=1, t_last=9.0, expected=2,
                        cost=1.5)
    plans = coord.round([_report(0, INF, barriers=[post0]),
                         _report(1, 9.0, barriers=[post1])])
    assert plans[0].releases == [("b@0", 10.5)]
    assert plans[1].releases == [("b@0", 10.5)]
    # The release also floors every shard's effective time.
    assert plans[0].horizon <= 10.5 + 2.0


def test_deadlock_detection_names_the_stuck_collective():
    coord = SyncCoordinator(2.0, 2)
    post = BarrierPost(name="lost@3", count=1, t_last=4.0, expected=2,
                       cost=1.0)
    coord.round([_report(0, 5.0, barriers=[post]), _report(1, 5.0)])
    with pytest.raises(SyncDeadlock, match="lost@3"):
        coord.round([_report(0, INF), _report(1, INF)])


def test_barrier_overcount_rejected():
    coord = SyncCoordinator(2.0, 2)
    post = BarrierPost(name="b", count=3, t_last=1.0, expected=2,
                       cost=0.0)
    with pytest.raises(SyncError, match="arrivals"):
        coord.round([_report(0, 1.0, barriers=[post]), _report(1, 1.0)])


# ---------------------------------------------------------------------------
# run_before: the bounded drain both cores implement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pooled", [True, False])
def test_run_before_strict_bound(pooled):
    sim = Simulator() if pooled else ReferenceSimulator()
    seen = []
    for t in (1.0, 2.0, 3.0, 4.0):
        timer(sim, t).add_callback(
            lambda ev, t=t: seen.append((t, sim.now)))
    n = sim.run_before(3.0)
    assert n == 2
    assert [t for t, _ in seen] == [1.0, 2.0]
    assert sim.now == 2.0          # clock rests on the last event
    assert sim.run_before(3.0) == 0
    assert sim.run_before(INF) == 2
    assert [t for t, _ in seen] == [1.0, 2.0, 3.0, 4.0]


# ---------------------------------------------------------------------------
# ShardContext send validation + ShardedSimulator construction
# ---------------------------------------------------------------------------

def _ctx(nshards=2, la=2.0):
    matrix = tuple(tuple(0.0 if i == j else la for j in range(nshards))
                   for i in range(nshards))
    return ShardContext(0, nshards, matrix)


def test_send_below_lookahead_rejected():
    ctx = _ctx()
    with pytest.raises(SyncError, match="below lookahead"):
        ctx.send(1, "msg", latency=1.0)
    ctx.send(1, "msg", "p", latency=2.0, nbytes=8)   # the bound is fine
    assert ctx._report().sent == [[], [(2.0, 0, 1, 1, "msg", 8, "p")]]


def test_same_shard_send_takes_delivery_path():
    ctx = _ctx()
    got = []
    ctx.on_message("echo", got.append)
    ctx.send(0, "echo", "hi", latency=0.5)   # below lookahead is fine
    ctx.sim.run()
    assert got == ["hi"]
    assert ctx._report().sent == [[], []]


@pytest.mark.parametrize("latency", [-0.5, float("nan")])
@pytest.mark.parametrize("dst", [0, 1])
def test_negative_send_latency_rejected(dst, latency):
    # A NaN passes every comparison with the lookahead: a cross-shard
    # message would arrive nowhere, and the run would end without it.
    with pytest.raises(SimulationError, match="negative send latency"):
        _ctx().send(dst, "msg", latency=latency)


def test_same_shard_send_without_handler_rejected():
    with pytest.raises(SimulationError,
                       match="shard 0: no handler for message 'nope'"):
        _ctx().send(0, "nope", latency=1.0)


def _unhandled_builder(ctx):
    if ctx.shard == 1:
        ctx.send(0, "nope", "x", latency=2.0)


def test_delivered_message_without_handler_rejected():
    with pytest.raises(SimulationError,
                       match="shard 0: no handler for message 'nope'"):
        ShardedSimulator(2, lookahead=2.0).run(_unhandled_builder)


def test_delivery_in_the_past_rejected():
    ctx = _ctx()
    ctx.on_message("late", lambda payload: None)
    timer(ctx.sim, 5.0)
    ctx.sim.run()
    plan = GrainPlan(horizon=10.0,
                     deliver=[(4.0, 1, 1, 0, "late", 8, None)])
    with pytest.raises(SyncError,
                       match=r"'late' arrival 4\.000000 is in the past "
                             r"\(now=5\.000000\)"):
        ctx._run_grain(plan)


def _crashing_builder(ctx):
    def crasher():
        yield 1.0
        raise RuntimeError("kv-client blew up")

    def bystander():
        yield 5.0

    ctx.spawn(bystander(), name="bystander")
    if ctx.shard == ctx.nshards - 1:
        ctx.spawn(crasher(), name="crasher")


def test_crashed_process_is_an_error_not_a_short_run():
    sharded = ShardedSimulator(2, lookahead=2.0)
    with pytest.raises(RuntimeError, match="kv-client blew up") as info:
        sharded.run(_crashing_builder)
    assert "crasher" in str(info.value)


def _finishing_builder(ctx):
    seen = []
    ctx.publish("seen", seen)
    ctx.on_message("tick", seen.append)
    ctx.send(ctx.shard, "tick", "delivered", latency=1.0)
    ctx.at_finish(lambda: seen.append(f"finished at {ctx.sim.now}"))


def test_at_finish_runs_after_the_last_event_before_outputs_ship():
    run = ShardedSimulator(2, lookahead=2.0).run(_finishing_builder)
    assert run.outputs == [{"seen": ["delivered", "finished at 1.0"]}] * 2


def test_sharded_simulator_constructor():
    assert ShardedSimulator(4, lookahead=2.0).nshards == 4
    with pytest.raises(ValueError):
        ShardedSimulator(0)


# ---------------------------------------------------------------------------
# Shard collectives
# ---------------------------------------------------------------------------

def test_dissemination_cost_shared_formula():
    t = GM.transport
    assert dissemination_cost_us(GM, 1, t) == 0.5
    c256 = dissemination_cost_us(GM, 256, t)
    assert c256 == pytest.approx(
        2 * 8 * (GM.wire_base_us + 3 * GM.wire_per_hop_us
                 + t.o_send_us + t.o_recv_us))
    bgl = MACHINES["bgl"]
    assert dissemination_cost_us(bgl, 4096, bgl.transport) == \
        bgl.collective_network_barrier_us


class _FenceHost:
    def __init__(self, sim):
        self.sim = sim


def test_shard_fence_drains_acks():
    sim = Simulator()
    fence = ShardFence(_FenceHost(sim))
    done = []

    def writer():
        t1 = fence.issue()
        t2 = fence.issue()
        timer(sim, 1.0).add_callback(lambda ev: fence.ack(t1))
        timer(sim, 5.0).add_callback(lambda ev: fence.ack(t2))
        yield from fence.wait()
        done.append(sim.now)

    sim.process(writer())
    sim.run()
    assert done == [5.0]
    assert fence.outstanding == 0
    assert fence.completed == 2
    with pytest.raises(RuntimeError, match="unknown or duplicate"):
        fence.ack(99)


# ---------------------------------------------------------------------------
# RNG stream splitting
# ---------------------------------------------------------------------------

def test_stream_family_is_shard_independent():
    fam = StreamFamily(42, "fault-plan")
    a = fam.rng(7).integers(0, 1 << 30, 8)
    b = fam.rng(7).integers(0, 1 << 30, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, fam.rng(8).integers(0, 1 << 30, 8))
    # Nested scopes decorrelate but stay deterministic.
    child = fam.child("arrivals").rng(7).integers(0, 1 << 30, 8)
    assert np.array_equal(child, StreamFamily(
        42, "fault-plan", "arrivals").rng(7).integers(0, 1 << 30, 8))
    assert not np.array_equal(child, a)


def test_stream_family_key_rules():
    fam = StreamFamily(1, "x")
    assert np.array_equal(fam.rng("node", 3).integers(0, 1 << 30, 4),
                          fam.rng("node", 3).integers(0, 1 << 30, 4))
    with pytest.raises(TypeError):
        fam.rng(True)
    with pytest.raises(TypeError):
        StreamFamily(1, 3.5)


# ---------------------------------------------------------------------------
# Metrics rollups
# ---------------------------------------------------------------------------

def test_shard_metrics_rollup_in_summary():
    shards = [
        ShardMetrics(shard=0, events=100, grains=10, stall_grains=2,
                     msgs_sent=5, channel_bytes=400, max_backlog=7,
                     final_clock_us=50.0),
        ShardMetrics(shard=1, events=300, grains=12, stall_grains=1,
                     msgs_sent=9, channel_bytes=600, max_backlog=4,
                     final_clock_us=52.0),
    ]
    s = shard_summary(shards)
    assert s["shards"] == 2
    assert s["shard_events_total"] == 400
    assert s["shard_events_mean"] == pytest.approx(200.0)
    assert s["shard_events_max"] == 300
    assert s["sync_rounds"] == 12
    assert s["sync_stall_grains"] == 3
    assert s["channel_bytes"] == 1000
    assert s["channel_msgs"] == 14
    assert s["shard_max_backlog"] == 7
    assert s["shard_final_clock_us"] == 52.0
    assert shard_summary([])["shard_events_mean"] == 0.0
    # The runtime's own summary carries no shard rollup.
    assert "shards" not in RuntimeMetrics().summary()
