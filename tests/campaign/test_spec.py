"""Campaign spec expansion: deterministic, collision-checked."""

import json
import os
import re

import pytest

from repro.campaign.spec import (SPECS, CampaignSpec, CellSpec,
                                 resolve_spec)


def _spec(**kw):
    base = dict(name="t", legs=[{"kind": "noop",
                                 "matrix": {"x": [1, 2]},
                                 "seeds": [0, 1]}])
    base.update(kw)
    return CampaignSpec.from_dict(base)


def test_expand_crosses_matrix_and_seeds():
    cells = _spec().expand()
    assert len(cells) == 4
    assert [(c.param_dict()["x"], c.seed) for c in cells] == [
        (1, 0), (1, 1), (2, 0), (2, 1)]


def test_expand_is_deterministic():
    a = [c.cell_id for c in _spec().expand()]
    b = [c.cell_id for c in _spec().expand()]
    assert a == b


def test_cell_id_depends_on_params_and_seed():
    a = CellSpec.make("noop", {"x": 1}, 0)
    b = CellSpec.make("noop", {"x": 2}, 0)
    c = CellSpec.make("noop", {"x": 1}, 1)
    assert len({a.cell_id, b.cell_id, c.cell_id}) == 3
    # Key order must not matter: the id is canonical.
    d = CellSpec.make("noop", {"b": 2, "a": 1}, 0)
    e = CellSpec.make("noop", {"a": 1, "b": 2}, 0)
    assert d.cell_id == e.cell_id


def test_overlapping_legs_rejected():
    spec = _spec(legs=[
        {"kind": "noop", "matrix": {"x": [1]}, "seeds": [0]},
        {"kind": "noop", "matrix": {"x": [1]}, "seeds": [0]},
    ])
    with pytest.raises(ValueError, match="duplicate cell"):
        spec.expand()


def test_zero_cells_rejected():
    with pytest.raises(ValueError, match="zero cells"):
        _spec(legs=[{"kind": "noop", "matrix": {"x": []}}]).expand()


def test_leg_without_kind_rejected():
    with pytest.raises(ValueError, match="no 'kind'"):
        _spec(legs=[{"matrix": {"x": [1]}}]).expand()


def test_non_list_axis_rejected():
    with pytest.raises(ValueError, match="must be a list"):
        _spec(legs=[{"kind": "noop", "matrix": {"x": 3}}]).expand()


def test_round_trip_through_json(tmp_path):
    spec = _spec()
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json(), encoding="utf-8")
    loaded = resolve_spec(str(path))
    assert [c.cell_id for c in loaded.expand()] == [
        c.cell_id for c in spec.expand()]


def test_resolve_inline_json():
    spec = resolve_spec(json.dumps(_spec().to_dict()))
    assert len(spec.expand()) == 4


def test_resolve_unknown_name_is_named_error():
    with pytest.raises(ValueError, match="built-in specs"):
        resolve_spec("no-such-spec")


def test_builtin_specs_expand():
    for name, make in SPECS.items():
        cells = make().expand()
        assert cells, name
        assert len({c.cell_id for c in cells}) == len(cells), name
    # The CI smoke matrix satisfies the >= 8 cell acceptance floor
    # (CI stops it after 4 and greps "resumed: 4 cell(s)").
    smoke = SPECS["smoke"]().expand()
    assert len(smoke) >= 8
    assert sorted((c.kind, c.param_dict().get("figure"))
                  for c in smoke) == [
        ("figure", "fig6_get"), ("figure", "fig6_put"),
        ("figure", "fig7"), ("figure", "fig9a"),
        ("kvtraffic", None), ("kvtraffic", None),
        ("lossy", None), ("lossy", None)]


def _documented_inline_spec(doc):
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "docs", doc), encoding="utf-8") as fh:
        (text,) = re.findall(r"--spec '(\{.*\})'", fh.read())
    return [c.to_dict() for c in resolve_spec(text).expand()]


def test_documented_full_scale_specs_are_the_retired_full_modes():
    # docs/SERVICE.md: skew 0.9 and 1.2 at 600k requests each — the
    # sweep sustains >= 1M simulated requests on the 2-shard core.
    kv = _documented_inline_spec("SERVICE.md")
    assert {c["kind"] for c in kv} == {"kvtraffic"}
    assert sorted(c["params"]["zipf_s"] for c in kv) == [0.9, 1.2]
    assert {c["params"]["shards"] for c in kv} == {2}
    assert sum(c["params"]["requests"] for c in kv) >= 1_000_000
    # docs/FAULTS.md: the healthy fabric plus 4 shapes x 4 policies,
    # 320k requests a cell on the uncompressed traces.
    healthy, *grid = _documented_inline_spec("FAULTS.md")
    assert healthy["kind"] == "kvtraffic"
    assert len(grid) == 16 and {c["kind"] for c in grid} == {"lossy"}
    assert len({(c["params"]["shape"], c["params"]["policy"])
                for c in grid}) == 16
    for c in [healthy] + grid:
        assert c["params"]["requests"] == 320_000 and c["seed"] == 9
        assert "trace" not in c["params"]
