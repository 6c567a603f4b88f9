"""``python -m repro campaign`` — run, resume, and render a sweep.

One command takes a campaign from spec to rendered figures::

    python -m repro campaign --spec smoke
    python -m repro campaign --spec service --workers 4
    python -m repro campaign --spec my-sweep.json --run-dir runs/s1

A killed campaign resumes from its per-cell checkpoints: re-run the
same command and completed cells are not re-executed (the summary
prints how many were resumed).  ``--max-cells`` deliberately stops
early — CI uses it to exercise the resume path.
"""

from __future__ import annotations

import os

from repro.campaign.render import render_campaign
from repro.campaign.runner import run_campaign
from repro.campaign.spec import SPECS, resolve_spec


def campaign_main(args) -> int:
    if args.list_specs:
        for name in sorted(SPECS):
            spec = SPECS[name]()
            print(f"  {name:10s} {len(spec.expand()):3d} cells, "
                  f"{spec.workers} workers — {spec.description}")
        return 0

    try:
        spec = resolve_spec(args.spec)
        cells = spec.expand()
    except ValueError as exc:
        print(f"error: {exc}")
        return 2

    if args.list_cells:
        print(f"campaign {spec.name}: {len(cells)} cells")
        for cell in cells:
            print(f"  {cell.cell_id}")
        return 0

    run_dir = args.run_dir or os.path.join("campaign-runs", spec.name)
    print(f"campaign {spec.name}: {len(cells)} cells, run dir "
          f"{run_dir}")

    if args.render_only:
        from repro.campaign.runner import load_checkpoint
        outcomes = [ck for cell in cells
                    if (ck := load_checkpoint(run_dir, cell))]
        if not outcomes:
            print("error: no completed checkpoints to render")
            return 2
        paths = render_campaign(run_dir, spec.name, outcomes)
        for p in paths:
            print(f"  rendered {p}")
        return 0

    def _progress(outcome):
        mark = {"ok": "ok ", "degenerate": "DEG",
                "error": "ERR"}.get(outcome["status"], "?? ")
        line = f"  [{mark}] {outcome['id']}"
        if outcome.get("elapsed_s") is not None:
            line += f"  ({outcome['elapsed_s']:.2f}s)"
        if outcome["status"] != "ok" and outcome.get("error"):
            line += f"  {outcome['error']}"
        print(line)

    run = run_campaign(spec, run_dir, workers=args.workers,
                       resume=not args.no_resume,
                       max_cells=args.max_cells, progress=_progress)

    print(f"resumed: {run.resumed} cell(s) already complete")
    print(f"executed: {run.executed} cell(s) this invocation")
    if run.pending:
        print(f"pending: {run.pending} cell(s) deferred by "
              f"--max-cells; re-run to resume")
    statuses = ", ".join(f"{k}={v}" for k, v
                         in sorted(run.statuses.items()))
    print(f"statuses: {statuses or 'none'}")
    for path in run.merged_paths:
        print(f"  merged {path}")

    if run.pending == 0:
        for path in render_campaign(run_dir, spec.name, run.cells):
            print(f"  rendered {path}")

    errors = [d for d in run.cells if d["status"] == "error"]
    for doc in errors:
        print(f"ERROR {doc['id']}: {doc.get('error', '')}")
    return 0 if run.ok else 1
