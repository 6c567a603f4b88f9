"""The campaign runner: fan cells out, checkpoint, resume, merge.

Execution model:

* :func:`run_campaign` expands the spec to cells, drops the ones that
  already have a complete checkpoint under ``<run_dir>/cells/`` (the
  *resume* path), and fans the rest out over ``workers`` processes
  pulling from a shared queue;
* each worker runs a cell and publishes its outcome with an atomic
  tmp+rename write, so a campaign killed at any instant leaves only
  complete checkpoints — the next invocation picks up exactly where
  it died without re-executing finished cells;
* once every cell has an outcome, the checkpoints are merged into
  per-kind ``BENCH_campaign_<kind>.json`` trajectory files.  Merged
  documents are pure functions of ``(spec, seed)`` — wall-clock
  timing and the per-invocation nonce stay in the checkpoints — so a
  resumed campaign merges *byte-identical* output to an uninterrupted
  one (the resume regression test holds this bar).

Cell failures are per-cell: a cell that raises is checkpointed with
``status="error"`` (re-run on the next resume), and a degenerate
zero-elapsed baseline is ``status="degenerate"`` — recorded in the
merge, never aborting the rest of the matrix.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.artifacts import atomic_write_json, merge_cells
from repro.campaign.cells import DegenerateBaselineError, run_cell
from repro.campaign.spec import CampaignSpec, CellSpec

__all__ = ["CampaignRun", "run_campaign", "load_checkpoint",
           "checkpoint_path"]

#: Checkpoint statuses that count as complete (skipped on resume).
DONE_STATUSES = ("ok", "degenerate")


def checkpoint_path(run_dir: str, cell_id: str) -> str:
    return os.path.join(run_dir, "cells", f"{cell_id}.json")


def load_checkpoint(run_dir: str, cell: CellSpec) -> Optional[Dict]:
    """Return the cell's completed checkpoint, or ``None`` if it must
    (re)run.

    Missing, truncated, or id-mismatched checkpoints all mean "run the
    cell again" — a torn file from a pre-atomic writer is treated as
    absent, not as an error (contrast with ``--baseline`` artifacts,
    where corruption is a named failure)."""
    path = checkpoint_path(run_dir, cell.cell_id)
    try:
        import json
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("id") != cell.cell_id:
        return None
    if doc.get("status") not in DONE_STATUSES:
        return None
    return doc


def _execute_cell(cell: CellSpec) -> Dict:
    """Run one cell, mapping exceptions to per-cell statuses."""
    t0 = time.monotonic()
    outcome = {
        "id": cell.cell_id,
        "kind": cell.kind,
        "params": cell.param_dict(),
        "seed": cell.seed,
    }
    try:
        payload = run_cell(cell.kind, cell.param_dict(), cell.seed)
    except DegenerateBaselineError as exc:
        outcome.update(status="degenerate", payload=None,
                       error=str(exc))
    except Exception as exc:
        outcome.update(status="error", payload=None,
                       error=f"{type(exc).__name__}: {exc}",
                       trace=traceback.format_exc())
    else:
        outcome.update(status="ok", payload=payload)
    # Timing lives ONLY here, never in the merged trajectory files.
    outcome["elapsed_s"] = round(time.monotonic() - t0, 4)
    return outcome


def _worker(queue, run_dir: str) -> None:
    """Worker loop: pull cell dicts until the ``None`` sentinel."""
    while True:
        doc = queue.get()
        if doc is None:
            return
        cell = CellSpec.from_dict(doc)
        outcome = _execute_cell(cell)
        outcome["pid"] = os.getpid()
        atomic_write_json(checkpoint_path(run_dir, cell.cell_id),
                          outcome, sort_keys=True)


@dataclass
class CampaignRun:
    """What one ``run_campaign`` invocation did."""

    campaign: str
    run_dir: str
    cells: List[Dict] = field(default_factory=list)   # outcome docs
    resumed: int = 0          # cells satisfied by existing checkpoints
    executed: int = 0         # cells run in this invocation
    pending: int = 0          # cells deferred by --max-cells
    merged_paths: List[str] = field(default_factory=list)

    @property
    def statuses(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for doc in self.cells:
            out[doc["status"]] = out.get(doc["status"], 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return self.pending == 0 and not any(
            doc["status"] == "error" for doc in self.cells)


def run_campaign(spec: CampaignSpec, run_dir: str, *,
                 workers: Optional[int] = None, resume: bool = True,
                 max_cells: Optional[int] = None,
                 progress=None) -> CampaignRun:
    """Run (or resume) a campaign under ``run_dir``.

    ``workers=0`` runs every cell in-process (useful for tests that
    monkeypatch cell kinds).  ``max_cells`` caps how many cells this
    invocation *executes* — remaining cells stay pending and the next
    invocation resumes them.  ``progress`` is an optional callable
    receiving one outcome doc per completed cell.
    """
    cells = spec.expand()
    if workers is None:
        workers = spec.workers
    for name, value in (("workers", workers), ("max_cells", max_cells)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    os.makedirs(os.path.join(run_dir, "cells"), exist_ok=True)

    run = CampaignRun(campaign=spec.name, run_dir=run_dir)
    todo: List[CellSpec] = []
    for cell in cells:
        ck = load_checkpoint(run_dir, cell) if resume else None
        if ck is not None:
            run.resumed += 1
            run.cells.append(ck)
        else:
            todo.append(cell)

    if max_cells is not None and len(todo) > max_cells:
        run.pending = len(todo) - max_cells
        todo = todo[:max_cells]

    if todo:
        if workers <= 1 or len(todo) == 1:
            for cell in todo:
                outcome = _execute_cell(cell)
                outcome["pid"] = os.getpid()
                atomic_write_json(
                    checkpoint_path(run_dir, cell.cell_id),
                    outcome, sort_keys=True)
                run.cells.append(outcome)
                run.executed += 1
                if progress is not None:
                    progress(outcome)
        else:
            _fan_out(todo, run_dir, workers)
            for cell in todo:
                outcome = load_checkpoint(run_dir, cell)
                if outcome is None:
                    # error-status checkpoints are not "complete" for
                    # resume, but they are outcomes of this run.
                    outcome = _read_any_checkpoint(run_dir, cell)
                run.cells.append(outcome)
                run.executed += 1
                if progress is not None:
                    progress(outcome)

    # Manifest: statuses only, no timing — deterministic too.
    manifest = {
        "campaign": spec.name,
        "workers": workers,
        "n_cells": len(cells),
        "cells": sorted(
            ({"id": d["id"], "kind": d["kind"],
              "status": d["status"]} for d in run.cells),
            key=lambda d: d["id"]),
        "spec": spec.to_dict(),
    }
    atomic_write_json(os.path.join(run_dir, "campaign.json"),
                      manifest, indent=1, sort_keys=True)

    if run.pending == 0:
        run.merged_paths = merge_cells(run_dir, spec.name, run.cells)
    return run


def _read_any_checkpoint(run_dir: str, cell: CellSpec) -> Dict:
    """Read a checkpoint regardless of status; synthesize an error
    outcome if the worker died before writing one."""
    import json
    path = checkpoint_path(run_dir, cell.cell_id)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and doc.get("id") == cell.cell_id:
            return doc
    except (OSError, ValueError):
        pass
    return {"id": cell.cell_id, "kind": cell.kind,
            "params": cell.param_dict(), "seed": cell.seed,
            "status": "error", "payload": None,
            "error": "worker exited without writing a checkpoint"}


def _fan_out(todo: List[CellSpec], run_dir: str, workers: int) -> None:
    """Run cells across worker processes pulling from a shared queue."""
    method = ("fork" if "fork"
              in multiprocessing.get_all_start_methods() else "spawn")
    ctx = multiprocessing.get_context(method)
    queue = ctx.Queue()
    for cell in todo:
        queue.put(cell.to_dict())
    nworkers = min(workers, len(todo))
    for _ in range(nworkers):
        queue.put(None)
    procs = [ctx.Process(target=_worker, args=(queue, run_dir),
                         daemon=False)
             for _ in range(nworkers)]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
