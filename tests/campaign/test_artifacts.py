"""Atomic artifact writes and the named missing/corrupt errors."""

import json
import os

import pytest

from repro.campaign.artifacts import (ArtifactError, atomic_write_json,
                                      load_json_artifact, merge_rows)


def test_atomic_write_round_trips(tmp_path):
    path = str(tmp_path / "a" / "b.json")
    atomic_write_json(path, {"x": 1})
    assert json.load(open(path)) == {"x": 1}
    # No tmp stragglers on the happy path.
    assert os.listdir(os.path.dirname(path)) == ["b.json"]


def test_atomic_write_preserves_previous_on_failure(tmp_path):
    path = str(tmp_path / "b.json")
    atomic_write_json(path, {"x": 1})
    with pytest.raises(TypeError):
        atomic_write_json(path, {"bad": object()})
    # The failed write neither corrupted nor removed the old file,
    # and cleaned up its temp file.
    assert json.load(open(path)) == {"x": 1}
    assert os.listdir(str(tmp_path)) == ["b.json"]


def test_missing_artifact_is_named_error(tmp_path):
    with pytest.raises(ArtifactError, match="does not exist"):
        load_json_artifact(str(tmp_path / "nope.json"))


def test_corrupt_artifact_is_named_error_not_jsondecode(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"bench": "kv", "results": [', encoding="utf-8")
    with pytest.raises(ArtifactError) as exc:
        load_json_artifact(str(path), what="campaign spec")
    msg = str(exc.value)
    assert "corrupt or truncated" in msg
    assert "campaign spec" in msg
    # Named, but still carrying the decode cause for debugging.
    assert isinstance(exc.value.__cause__, json.JSONDecodeError)


def _outcome(cid, kind="noop", status="ok", **extra):
    doc = {"id": cid, "kind": kind, "params": {}, "seed": 0,
           "status": status, "payload": {"v": cid},
           "elapsed_s": 1.23, "pid": 999}
    doc.update(extra)
    return doc


def test_merge_rows_sorts_and_strips_timing():
    rows = merge_rows([_outcome("b"), _outcome("a")])["noop"]
    assert [r["id"] for r in rows] == ["a", "b"]
    for r in rows:
        assert "elapsed_s" not in r
        assert "pid" not in r


def test_merge_rows_keeps_degenerate_drops_errors():
    by_kind = merge_rows([
        _outcome("a"),
        _outcome("b", status="degenerate", error="zero baseline"),
        _outcome("c", status="error", error="boom"),
    ])
    rows = by_kind["noop"]
    assert [r["id"] for r in rows] == ["a", "b"]
    assert rows[1]["error"] == "zero baseline"
