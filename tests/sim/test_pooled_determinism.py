"""The pooled fast core must be bit-identical to the reference core on
the PR 2 fuzz corpus: same final memory, same event order, and — with
the flight recorder on — byte-identical JSONL output.

These are full-runtime replays (network, cache, bulk engine, progress
engines all live), so any divergence means the event-core overhaul
changed an observable schedule, not just a micro-detail."""

import glob
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.obs.events import EventLog
from repro.obs.export import dump_jsonl
from repro.runtime.runtime import Runtime
from repro.sim.simulator import Simulator
from repro.testing.oracle import run_oracle
from repro.testing.program import Program, live_objects_at_end
from repro.testing.runner import _Driver, config_by_name, run_config

from tests.sim.reference_core import (
    ReferenceSimulator, assert_shares_no_fast_path, spy_on_wait_points)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "fuzz", "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return Program.loads(fh.read())


def _replay(program, point, sim, jsonl_path):
    events = EventLog()
    cfg = replace(point.runtime_config(program.nthreads,
                                       seed=program.seed or 0),
                  events=events)
    rt = Runtime(cfg, sim=sim)
    driver = _Driver(rt, program)
    rt.spawn(driver.kernel)
    rt.run()
    dump_jsonl(events, jsonl_path)
    finals = {obj_id: np.array(driver.objs[obj_id].data, copy=True)
              for obj_id in live_objects_at_end(program)
              if obj_id in driver.objs}
    with open(jsonl_path, "rb") as fh:
        blob = fh.read()
    return blob, finals, rt.sim.events_processed, rt.sim.now


@pytest.mark.parametrize(
    "corpus", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_cores_byte_identical_on_fuzz_corpus(corpus, tmp_path, monkeypatch):
    program = _load(corpus)
    point = config_by_name("gm-base")
    blob_p, finals_p, events_p, now_p = _replay(
        program, point, Simulator(), str(tmp_path / "pooled.jsonl"))
    woke = spy_on_wait_points(monkeypatch)
    reference = ReferenceSimulator()
    blob_l, finals_l, events_l, now_l = _replay(
        program, point, reference, str(tmp_path / "legacy.jsonl"))
    assert_shares_no_fast_path(reference, woke)
    assert events_p == events_l
    assert now_p == now_l
    assert set(finals_p) == set(finals_l)
    for obj_id in finals_p:
        assert np.array_equal(finals_p[obj_id], finals_l[obj_id]), (
            f"object {obj_id} final memory differs between cores")
    assert blob_p == blob_l, (
        "flight-recorder JSONL differs between pooled and legacy cores")
    assert len(blob_p) > 0


def test_pooled_core_agrees_with_flat_oracle():
    """The PR 2 oracle referees the pooled core directly: replaying a
    corpus program on the (default, pooled) runtime must produce zero
    divergences from flat memory."""
    program = _load(CORPUS[0])
    point = config_by_name("gm-base")
    divergences = run_config(program, point, run_oracle(program))
    assert divergences == []
