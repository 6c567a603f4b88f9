"""Atomic JSON artifacts and the campaign cell merge.

Every JSON artifact the campaign pipeline writes — checkpoints,
manifests, merged trajectories — goes through
:func:`atomic_write_json`: the document is serialized to a temp file
in the target directory and published with ``os.replace``, so a
killed process leaves either the previous complete file or nothing,
never a truncated one for a later resume to choke on.

Reading is the mirror image: :func:`load_json_artifact` turns a
missing or corrupt file into a *named* :class:`ArtifactError`
carrying the path and the likely cause, instead of a raw
``JSONDecodeError`` from deep inside the json module.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List, Optional, Sequence


class ArtifactError(RuntimeError):
    """A JSON artifact is missing, truncated, or unreadable."""


def atomic_write_json(path: str, obj, *, indent: int = 2,
                      sort_keys: bool = False) -> str:
    """Write ``obj`` as JSON to ``path`` via tmp-file-then-rename.

    The temp file lives in the destination directory so the final
    ``os.replace`` is atomic on POSIX; a crash mid-write leaves at
    worst a ``*.tmp`` straggler, never a half-written ``path``.
    Returns ``path``.
    """
    path = os.fspath(path)
    dirname = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirname, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp",
                               prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=indent, sort_keys=sort_keys)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_json_artifact(path: str, *, what: str = "artifact",
                       hint: str = "") -> Dict:
    """Load a JSON artifact; trouble is an :class:`ArtifactError`."""
    path = os.fspath(path)
    if not os.path.exists(path):
        hint = hint or "run the campaign first, or check the path"
        raise ArtifactError(f"{what} {path!r} does not exist ({hint})")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            f"{what} {path!r} is corrupt or truncated (line "
            f"{exc.lineno}: {exc.msg}) — likely an interrupted "
            f"non-atomic write; regenerate it") from exc
    except OSError as exc:
        raise ArtifactError(
            f"{what} {path!r} is unreadable: {exc}") from exc


# ---------------------------------------------------------------------------
# Cell merge: checkpoints -> BENCH_* trajectory files
# ---------------------------------------------------------------------------

def merge_rows(outcomes: Sequence[Dict]) -> Dict[str, List[Dict]]:
    """Group completed cell checkpoints by kind into deterministic
    trajectory rows: sorted by cell id, stripped of anything that is
    not a pure function of (spec, seed) — wall-clock timing stays in
    the per-cell checkpoints only, so a resumed campaign merges to
    *byte-identical* output."""
    by_kind: Dict[str, List[Dict]] = {}
    for doc in sorted(outcomes, key=lambda d: d["id"]):
        if doc["status"] not in ("ok", "degenerate"):
            continue
        row = {
            "id": doc["id"],
            "params": doc["params"],
            "seed": doc["seed"],
            "status": doc["status"],
            "payload": doc["payload"],
        }
        if doc["status"] == "degenerate":
            row["error"] = doc.get("error", "")
        by_kind.setdefault(doc["kind"], []).append(row)
    return by_kind


def merge_cells(run_dir: str, campaign: str,
                outcomes: Sequence[Dict]) -> List[str]:
    """Merge cell checkpoints into per-kind ``BENCH_campaign_<kind>``
    trajectory files under ``<run_dir>/bench/``, atomically.

    The merged document is a pure function of the completed cells, so
    re-running (or resuming) the same campaign rewrites byte-identical
    files.  Returns the written paths.
    """
    paths: List[str] = []
    for kind, rows in sorted(merge_rows(outcomes).items()):
        doc = {
            "bench": f"campaign_{kind}",
            "campaign": campaign,
            "cells": rows,
            "n_cells": len(rows),
        }
        path = os.path.join(run_dir, "bench",
                            f"BENCH_campaign_{kind}.json")
        paths.append(atomic_write_json(path, doc, indent=1,
                                       sort_keys=True))
    return paths
