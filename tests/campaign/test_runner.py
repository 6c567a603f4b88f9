"""Campaign runner: checkpoints, resume, kill-safety, fan-out.

The centerpiece is the kill/resume regression test the ISSUE demands:
a campaign SIGKILLed mid-run must resume without re-executing its
completed cells, and the resumed merge must be byte-identical to an
uninterrupted run's.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign.cells import KINDS
from repro.campaign.runner import (checkpoint_path, load_checkpoint,
                                   run_campaign)
from repro.campaign.spec import CampaignSpec
from repro.util.stats import DegenerateBaselineError

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                   "src")


def _noop_spec(n=4, sleep_s=0.0, workers=2, name="t"):
    leg = {"kind": "noop", "matrix": {"x": list(range(n))},
           "seeds": [0]}
    if sleep_s:
        leg["fixed"] = {"sleep_s": sleep_s}
    return CampaignSpec(name=name, legs=[leg], workers=workers)


# ---------------------------------------------------------------------------
# In-process basics
# ---------------------------------------------------------------------------

def test_run_and_merge(tmp_path):
    run = run_campaign(_noop_spec(3), str(tmp_path), workers=0)
    assert run.executed == 3 and run.resumed == 0
    assert run.statuses == {"ok": 3}
    assert run.ok
    merged = json.load(open(run.merged_paths[0]))
    assert merged["bench"] == "campaign_noop"
    assert merged["n_cells"] == 3
    assert os.path.exists(os.path.join(str(tmp_path), "campaign.json"))


def test_resume_skips_completed_cells(tmp_path):
    spec = _noop_spec(4)
    first = run_campaign(spec, str(tmp_path), workers=0, max_cells=2)
    assert first.executed == 2 and first.pending == 2
    assert not first.ok          # pending cells: not a complete run
    second = run_campaign(spec, str(tmp_path), workers=0)
    assert second.resumed == 2 and second.executed == 2
    assert second.ok


def test_resumed_cells_are_not_reexecuted(tmp_path):
    spec = _noop_spec(4)
    first = run_campaign(spec, str(tmp_path), workers=0, max_cells=2)
    done = [c for c in spec.expand()
            if load_checkpoint(str(tmp_path), c)]
    before = {c.cell_id: open(checkpoint_path(str(tmp_path),
                                              c.cell_id), "rb").read()
              for c in done}
    run_campaign(spec, str(tmp_path), workers=0)
    for cid, blob in before.items():
        after = open(checkpoint_path(str(tmp_path), cid), "rb").read()
        assert after == blob, f"{cid} was re-executed on resume"
    assert first.executed == 2


def test_negative_counts_are_rejected_before_any_cell_runs(tmp_path):
    # Unchecked, max_cells=-1 slices todo[:-1] (every cell but one)
    # and counts one pending cell more than the spec has.
    spec = _noop_spec(4)
    for kw, name in ((dict(max_cells=-1), "max_cells"),
                     (dict(workers=-1), "workers")):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            run_campaign(spec, str(tmp_path), **kw)
    assert not os.path.exists(os.path.join(str(tmp_path), "cells"))
    run = run_campaign(spec, str(tmp_path), workers=0, max_cells=0)
    assert run.executed == 0 and run.pending == 4


def test_truncated_checkpoint_is_rerun_not_error(tmp_path):
    spec = _noop_spec(2)
    run_campaign(spec, str(tmp_path), workers=0)
    victim = spec.expand()[0]
    path = checkpoint_path(str(tmp_path), victim.cell_id)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"id": "' + victim.cell_id)   # torn write
    assert load_checkpoint(str(tmp_path), victim) is None
    run = run_campaign(spec, str(tmp_path), workers=0)
    assert run.resumed == 1 and run.executed == 1
    assert run.statuses == {"ok": 2}


def test_merge_is_byte_identical_across_resume(tmp_path):
    spec = _noop_spec(5)
    clean_dir, resumed_dir = str(tmp_path / "a"), str(tmp_path / "b")
    clean = run_campaign(spec, clean_dir, workers=0)
    run_campaign(spec, resumed_dir, workers=0, max_cells=2)
    resumed = run_campaign(spec, resumed_dir, workers=0)
    a = open(clean.merged_paths[0], "rb").read()
    b = open(resumed.merged_paths[0], "rb").read()
    assert a == b


# ---------------------------------------------------------------------------
# Per-cell failure semantics
# ---------------------------------------------------------------------------

@pytest.fixture
def stub_kind():
    """Register a throwaway cell kind; in-process runs only."""
    registered = []

    def register(name, fn):
        KINDS[name] = fn
        registered.append(name)

    yield register
    for name in registered:
        del KINDS[name]


def test_degenerate_cell_recorded_not_fatal(tmp_path, stub_kind):
    def fn(params, seed):
        if params["x"] == 1:
            raise DegenerateBaselineError("elapsed 0.0 <= 0")
        return {"v": params["x"]}

    stub_kind("stub", fn)
    spec = CampaignSpec(name="t", legs=[
        {"kind": "stub", "matrix": {"x": [0, 1, 2]}}])
    run = run_campaign(spec, str(tmp_path), workers=0)
    assert run.statuses == {"ok": 2, "degenerate": 1}
    assert run.ok                # degenerate cells don't fail the run
    rows = json.load(open(run.merged_paths[0]))["cells"]
    bad = [r for r in rows if r["status"] == "degenerate"]
    assert len(bad) == 1 and "elapsed 0.0" in bad[0]["error"]


def test_error_cell_fails_run_and_is_retried_on_resume(tmp_path,
                                                       stub_kind):
    calls = {"n": 0}

    def fn(params, seed):
        calls["n"] += 1
        if params["x"] == 1 and calls["n"] <= 2:
            raise RuntimeError("boom")
        return {"v": params["x"]}

    stub_kind("stub", fn)
    spec = CampaignSpec(name="t", legs=[
        {"kind": "stub", "matrix": {"x": [0, 1]}}])
    first = run_campaign(spec, str(tmp_path), workers=0)
    assert first.statuses == {"ok": 1, "error": 1}
    assert not first.ok
    # Resume: the ok cell is kept, the error cell re-runs (and the
    # stub succeeds this time).
    second = run_campaign(spec, str(tmp_path), workers=0)
    assert second.resumed == 1 and second.executed == 1
    assert second.statuses == {"ok": 2}


def test_unknown_kind_is_per_cell_error(tmp_path):
    spec = CampaignSpec(name="t", legs=[
        {"kind": "no-such-kind", "matrix": {"x": [0]}}])
    run = run_campaign(spec, str(tmp_path), workers=0)
    assert run.statuses == {"error": 1}
    assert "unknown cell kind" in run.cells[0]["error"]


# ---------------------------------------------------------------------------
# Multi-process fan-out
# ---------------------------------------------------------------------------

def test_fan_out_uses_worker_processes(tmp_path):
    spec = _noop_spec(4, sleep_s=0.4, workers=2)
    run = run_campaign(spec, str(tmp_path), workers=2)
    assert run.statuses == {"ok": 4}
    pids = {doc["pid"] for doc in run.cells}
    assert os.getpid() not in pids
    assert len(pids) >= 2, "cells did not spread across workers"


# ---------------------------------------------------------------------------
# The kill/resume acceptance test
# ---------------------------------------------------------------------------

def _campaign_cmd(spec_path, run_dir):
    return [sys.executable, "-m", "repro", "campaign",
            "--spec", spec_path, "--run-dir", run_dir]


def test_killed_campaign_resumes_byte_identical(tmp_path):
    """SIGKILL a 2-worker campaign mid-run; resume must skip the
    completed cells and merge byte-identical output to an
    uninterrupted run."""
    spec = _noop_spec(6, sleep_s=0.4, workers=2, name="killtest")
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json())
    victim_dir = str(tmp_path / "victim")

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(_campaign_cmd(spec_path, victim_dir),
                            env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + 60
        while time.time() < deadline:
            done = sum(1 for c in spec.expand()
                       if load_checkpoint(victim_dir, c))
            if done >= 2:
                break
            if proc.poll() is not None:
                pytest.fail("campaign finished before it was killed; "
                            "raise sleep_s")
            time.sleep(0.05)
        else:
            pytest.fail("no checkpoints appeared within 60s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

    survivors = [c for c in spec.expand()
                 if load_checkpoint(victim_dir, c)]
    assert 2 <= len(survivors) < 6, "kill landed too late/too early"
    before = {c.cell_id: open(checkpoint_path(victim_dir, c.cell_id),
                              "rb").read() for c in survivors}

    resumed = run_campaign(spec, victim_dir, workers=0)
    assert resumed.resumed == len(survivors)
    assert resumed.executed == 6 - len(survivors)
    assert resumed.statuses == {"ok": 6}
    for cid, blob in before.items():
        after = open(checkpoint_path(victim_dir, cid), "rb").read()
        assert after == blob, f"{cid} was re-executed after the kill"

    clean = run_campaign(spec, str(tmp_path / "clean"), workers=0)
    a = open(clean.merged_paths[0], "rb").read()
    b = open(resumed.merged_paths[0], "rb").read()
    assert a == b, "resumed merge differs from uninterrupted merge"
