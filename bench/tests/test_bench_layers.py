"""The path -> layer map and the built-in charging rule."""

import os

import pytest

from bench import layers
from bench.metrics import LAYERS

REPRO = os.path.join(layers.ROOT, "src", "repro")


def _repro_sources():
    for dirpath, _dirs, files in os.walk(REPRO):
        for name in files:
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, REPRO).replace(os.sep, "/")


def test_every_source_file_has_a_layer():
    sources = sorted(_repro_sources())
    assert len(sources) > 100
    for rel in sources:
        assert layers.layer_of_repro(rel) in LAYERS + (layers.OFFLINE,), rel


def test_unmapped_file_fails():
    with pytest.raises(layers.UnmappedSource):
        layers.layer_of_repro("newpkg/thing.py")
    with pytest.raises(layers.UnmappedSource):
        layers.layer_of_repro("toplevel_module.py")


def test_shard_files_leave_their_package():
    assert layers.layer_of_repro("sim/simulator.py") == "sim.core"
    assert layers.layer_of_repro("sim/shard.py") == "sim.shard"
    assert layers.layer_of_repro("network/shard_channel.py") == "sim.shard"
    assert layers.layer_of_repro("network/transport.py") == "network"


class _FakeProfile:
    """What pstats.Stats needs from a profiler: create_stats + stats."""

    def __init__(self, stats):
        self.stats = stats

    def create_stats(self):
        pass


def _src(rel):
    return os.path.join(REPRO, *rel.split("/"))


def test_builtin_time_is_charged_to_the_caller_and_shares_sum_to_one():
    ops_get = (_src("runtime/ops.py"), 10, "get")
    sim_step = (_src("sim/simulator.py"), 20, "step")
    kernel = (os.path.join(layers.ROOT, "bench", "workloads.py"), 5, "kernel")
    builtin_len = ("~", 0, "<built-in method builtins.len>")
    np_copy = ("~", 0, "<method 'copy' of 'numpy.ndarray' objects>")
    heappush = ("/usr/lib/python3.11/heapq.py", 130, "heappush_py")
    helper = ("/usr/lib/python3.11/bisect.py", 8, "insort")
    disable = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        # func: (primitive calls, calls, tottime, cumtime, callers)
        kernel: (1, 1, 0.25, 4.0, {}),
        ops_get: (100, 100, 1.0, 2.0, {kernel: (100, 100, 1.0, 2.0)}),
        sim_step: (50, 50, 1.0, 1.75, {kernel: (50, 50, 1.0, 1.75)}),
        # len() is called from two layers: split by the edge's own time.
        builtin_len: (30, 30, 0.5, 0.5, {
            ops_get: (20, 20, 0.25, 0.25),
            sim_step: (10, 10, 0.25, 0.25)}),
        np_copy: (5, 5, 0.5, 0.5, {ops_get: (5, 5, 0.5, 0.5)}),
        # stdlib Python two levels deep resolves through its caller.
        heappush: (7, 7, 0.25, 0.5, {sim_step: (7, 7, 0.25, 0.5)}),
        helper: (7, 7, 0.25, 0.25, {heappush: (7, 7, 0.25, 0.25)}),
        # No caller at all: the harness.
        disable: (1, 1, 0.25, 0.25, {}),
    }
    table = layers.bucket(_FakeProfile(stats))
    lay = table["layers"]
    assert lay["runtime"]["self_s"] == pytest.approx(1.0 + 0.25)
    assert lay["sim.core"]["self_s"] == pytest.approx(1.0 + 0.25 + 0.25 + 0.25)
    assert lay["numpy"]["self_s"] == pytest.approx(0.5)
    assert lay["bench"]["self_s"] == pytest.approx(0.25 + 0.25)
    assert table["total_s"] == pytest.approx(4.0)
    assert sum(r["self_share"] for r in lay.values()) == pytest.approx(1.0, abs=0.01)
    # Calls count classified functions only, never the charged built-ins.
    assert lay["runtime"]["calls"] == 100
    assert lay["sim.core"]["calls"] == 50
    assert lay["numpy"]["calls"] == 5
    assert table["edges"] == {"bench->runtime": 100, "bench->sim.core": 50,
                              "runtime->numpy": 5}
    assert table["top"]["runtime"][0]["calls"] == 100


def test_offline_tooling_inside_a_repetition_fails():
    fuzz = (_src("testing/runner.py"), 1, "run")
    with pytest.raises(RuntimeError, match="offline"):
        layers.bucket(_FakeProfile({fuzz: (1, 1, 0.1, 0.1, {})}))


def test_real_profile_shares_sum_to_one():
    import cProfile

    from bench.workloads import WORKLOADS

    w = WORKLOADS["kv_mix"]
    inputs = w.generate(3, 0.01)
    profile = cProfile.Profile()
    profile.enable()
    w.run(inputs)
    profile.disable()
    lay = layers.bucket(profile)["layers"]
    assert sum(r["self_share"] for r in lay.values()) == pytest.approx(1.0, abs=0.01)
    assert lay["service"]["calls"] > 0
    assert lay["sim.shard"]["calls"] == 0
