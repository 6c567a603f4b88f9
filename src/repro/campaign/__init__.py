"""Sweep-campaign orchestration: declare a config matrix, fan it out
across worker processes, checkpoint per cell, resume after a kill,
merge into ``BENCH_*`` trajectories and render the paper's figures —
one ``python -m repro campaign`` command.

* :mod:`repro.campaign.spec` — :class:`CampaignSpec` /
  :class:`CellSpec`, the built-in :data:`SPECS`, and
  :func:`resolve_spec`;
* :mod:`repro.campaign.cells` — the cell kinds (figure, kvtraffic,
  lossy, noop) dispatched by :func:`run_cell`;
* :mod:`repro.campaign.runner` — :func:`run_campaign`: checkpointed,
  resumable multi-process execution;
* :mod:`repro.campaign.artifacts` — :func:`atomic_write_json`, the
  named :class:`ArtifactError`, and the deterministic cell merge;
* :mod:`repro.campaign.render` — text tables plus the ASCII FCT CDF
  figures (including the lossy-fabric per-policy comparison).
"""

from repro.campaign.artifacts import (
    ArtifactError,
    atomic_write_json,
    load_json_artifact,
    merge_cells,
    merge_rows,
)
from repro.campaign.cells import KINDS, run_cell
from repro.campaign.render import render_campaign, render_cdf_figure
from repro.campaign.runner import (
    CampaignRun,
    checkpoint_path,
    load_checkpoint,
    run_campaign,
)
from repro.campaign.spec import (
    SPECS,
    CampaignSpec,
    CellSpec,
    resolve_spec,
)

__all__ = [
    "ArtifactError",
    "CampaignRun",
    "CampaignSpec",
    "CellSpec",
    "KINDS",
    "SPECS",
    "atomic_write_json",
    "checkpoint_path",
    "load_checkpoint",
    "load_json_artifact",
    "merge_cells",
    "merge_rows",
    "render_campaign",
    "render_cdf_figure",
    "resolve_spec",
    "run_cell",
    "run_campaign",
]
