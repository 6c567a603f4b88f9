"""Campaign specs: a config matrix declared as a small document.

A spec is a list of *legs*; each leg crosses a ``matrix`` of axes
(workload × machine params × shards × cache/fault knobs) with a list
of ``seeds`` and shares the leg's ``fixed`` parameters.  Expansion is
deterministic: axes are crossed in sorted-key order, seeds last, and
every cell gets a stable id derived from a canonical-JSON hash of its
``(kind, params, seed)`` triple — the same spec always expands to the
same cells, which is what makes checkpoint resume sound.

Specs round-trip through JSON (``python -m repro campaign --spec
my-sweep.json``); the built-in :data:`SPECS` cover the smoke matrix
CI runs nightly, the paper's figure tables, and the service-level
sweeps (see docs/CAMPAIGNS.md).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.campaign.artifacts import ArtifactError, load_json_artifact

_SLUG_RE = re.compile(r"[^a-zA-Z0-9.]+")


def _slug(text: str, limit: int = 48) -> str:
    return _SLUG_RE.sub("-", str(text)).strip("-")[:limit].rstrip("-")


@dataclass(frozen=True)
class CellSpec:
    """One cell of the matrix: a kind, its parameters, and a seed."""

    kind: str
    params: tuple          # canonical: sorted (key, json-str) pairs
    seed: int = 0

    @staticmethod
    def make(kind: str, params: Dict, seed: int = 0) -> "CellSpec":
        canon = tuple(sorted(
            (k, json.dumps(v, sort_keys=True)) for k, v in params.items()))
        return CellSpec(kind=kind, params=canon, seed=seed)

    def param_dict(self) -> Dict:
        return {k: json.loads(v) for k, v in self.params}

    @property
    def cell_id(self) -> str:
        """Stable, filesystem-safe id: readable slug + content hash."""
        blob = json.dumps({"kind": self.kind, "params": list(self.params),
                           "seed": self.seed}, sort_keys=True)
        digest = hashlib.sha1(blob.encode("utf-8")).hexdigest()[:10]
        bits = [self.kind]
        for key, value in self.params:
            v = json.loads(value)
            if isinstance(v, (str, int, float, bool)):
                bits.append(f"{_slug(key, 12)}{_slug(v, 12)}")
        bits.append(f"s{self.seed}")
        return f"{_slug('-'.join(bits), 70)}-{digest}"

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "params": self.param_dict(),
                "seed": self.seed, "id": self.cell_id}

    @staticmethod
    def from_dict(doc: Dict) -> "CellSpec":
        return CellSpec.make(doc["kind"], doc["params"],
                             int(doc.get("seed", 0)))


@dataclass
class CampaignSpec:
    """A named matrix of cells, expanded deterministically."""

    name: str
    legs: List[Dict] = field(default_factory=list)
    workers: int = 2
    description: str = ""

    def expand(self) -> List[CellSpec]:
        cells: List[CellSpec] = []
        seen: Dict[str, CellSpec] = {}
        for i, leg in enumerate(self.legs):
            kind = leg.get("kind")
            if not kind:
                raise ValueError(f"{self.name}: leg {i} has no 'kind'")
            fixed = dict(leg.get("fixed", {}))
            matrix = dict(leg.get("matrix", {}))
            seeds = list(leg.get("seeds", [0]))
            axes = sorted(matrix)
            for key in axes:
                if not isinstance(matrix[key], (list, tuple)):
                    raise ValueError(
                        f"{self.name}: leg {i} axis {key!r} must be a "
                        f"list of values, got {matrix[key]!r}")
            for combo in itertools.product(*(matrix[k] for k in axes)):
                params = dict(fixed)
                params.update(zip(axes, combo))
                for seed in seeds:
                    cell = CellSpec.make(kind, params, int(seed))
                    if cell.cell_id in seen:
                        raise ValueError(
                            f"{self.name}: duplicate cell "
                            f"{cell.cell_id} (legs overlap)")
                    seen[cell.cell_id] = cell
                    cells.append(cell)
        if not cells:
            raise ValueError(f"campaign {self.name!r} expands to zero "
                             f"cells")
        return cells

    def to_dict(self) -> Dict:
        return {"name": self.name, "description": self.description,
                "workers": self.workers, "legs": self.legs}

    @staticmethod
    def from_dict(doc: Dict) -> "CampaignSpec":
        if "name" not in doc or "legs" not in doc:
            raise ValueError("campaign spec needs 'name' and 'legs'")
        return CampaignSpec(name=doc["name"], legs=list(doc["legs"]),
                            workers=int(doc.get("workers", 2)),
                            description=doc.get("description", ""))


# ---------------------------------------------------------------------------
# Built-in specs
# ---------------------------------------------------------------------------

def _smoke_spec() -> CampaignSpec:
    return CampaignSpec(
        name="smoke",
        description="CI smoke matrix: figure, kvtraffic and lossy "
                    "cells, seconds on 2 workers",
        workers=2,
        legs=[
            {"kind": "figure",
             "matrix": {"figure": ["fig6_get", "fig6_put"]},
             "fixed": {"sizes": [4096], "reps": 5}},
            {"kind": "figure",
             "matrix": {"figure": ["fig9a"]},
             "fixed": {"scales": [[8, 2]], "seeds": [1, 2]}},
            {"kind": "figure",
             "matrix": {"figure": ["fig7"]},
             "fixed": {"sizes": [1, 64, 1024, 8192], "reps": 3}},
            {"kind": "kvtraffic",
             "matrix": {"zipf_s": [0.9, 1.2]},
             "fixed": {"requests": 6000, "shards": 1,
                       "slo_target_us": 30.0, "slo_window_us": 500.0},
             "seeds": [7]},
            {"kind": "lossy",
             "matrix": {"policy": ["do_nothing", "disable_and_repair"]},
             "fixed": {"shape": "flap", "requests": 32000, "shards": 1,
                       "trace_seed": 7, "trace": "compressed"},
             "seeds": [9]},
        ])


def _paper_spec() -> CampaignSpec:
    from repro.experiments import EXPERIMENTS

    return CampaignSpec(
        name="paper",
        description="The paper's figure tables as campaign cells "
                    "(quick scales; minutes on 4 workers)",
        workers=4,
        legs=[{"kind": "figure",
               "matrix": {"figure": [
                   name for name, exp in EXPERIMENTS.items()
                   if exp.heading.startswith("E")]}}])


def _service_spec() -> CampaignSpec:
    return CampaignSpec(
        name="service",
        description="KV service sweep: skew x shards FCT/SLO grid "
                    "plus the lossy-fabric policy grid",
        workers=4,
        legs=[
            {"kind": "kvtraffic",
             "matrix": {"zipf_s": [0.8, 0.9, 1.05, 1.2],
                        "shards": [1, 2]},
             "fixed": {"requests": 100_000, "slo_target_us": 30.0,
                       "slo_window_us": 2000.0},
             "seeds": [7]},
            {"kind": "lossy",
             "matrix": {"shape": ["flap", "burst", "degrade", "gray"],
                        "policy": ["do_nothing", "retransmit_tuning",
                                   "disable_and_repair",
                                   "path_failover"]},
             "fixed": {"requests": 48_000, "shards": 1, "trace_seed": 7,
                       "trace": "compressed"},
             "seeds": [9]},
        ])


SPECS: Dict[str, Callable[[], CampaignSpec]] = {
    "smoke": _smoke_spec,
    "paper": _paper_spec,
    "service": _service_spec,
}


def resolve_spec(name_or_path: str) -> CampaignSpec:
    """A built-in spec name, inline JSON, or a JSON file path."""
    if name_or_path in SPECS:
        return SPECS[name_or_path]()
    text = name_or_path.strip()
    if text.startswith("{"):
        try:
            return CampaignSpec.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ValueError(f"inline campaign spec is not valid "
                             f"JSON: {exc}") from exc
    try:
        doc = load_json_artifact(name_or_path, what="campaign spec",
                                 hint="pass a spec file path, inline "
                                      "JSON, or a built-in name")
    except ArtifactError as exc:
        names = ", ".join(sorted(SPECS))
        raise ValueError(f"{exc} (built-in specs: {names})") from exc
    return CampaignSpec.from_dict(doc)
