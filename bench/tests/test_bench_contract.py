"""BENCHMARK.json, the registry and the command agree."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import metrics
from bench.layers import ROOT
from bench.workloads import COUNTER_NAMES, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_the_registry():
    from bench.run import WORKLOAD_NAMES

    assert _contract() == metrics.contract(WORKLOADS.values())
    assert tuple(WORKLOADS) == WORKLOAD_NAMES


def test_names_units_and_bounds_are_within_the_contract():
    doc = _contract()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert 2 <= len(doc["workloads"]) <= 8
    assert len(doc["end_to_end"]) <= 16 and len(doc["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    # 4 + 22 runs per workload must fit the driver's 3420 s.
    assert 1 <= doc["run_seconds"] <= 60


def test_every_counter_is_a_registered_metric():
    registered = {m.name for m in metrics.PER_LAYER}
    assert set(COUNTER_NAMES) <= registered
    assert all(m.exact for m in metrics.PER_LAYER
               if m.name in COUNTER_NAMES)


def test_readme_glossary_names_every_metric():
    with open(os.path.join(ROOT, "bench", "README.md")) as fh:
        text = fh.read()
    missing = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER
               if f"`{m.name}`" not in text]
    assert not missing


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py")] + args,
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,expected", [
    ("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)])
def test_driver_form_prints_one_json_object_last(tmp_path, trace, expected):
    proc = _run(["--workload", "kv_mix", "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--quick", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in expected]
    for m in expected:
        assert line["metrics"][m.name]["unit"] == m.unit
    artifact = json.loads((tmp_path / "kv_mix.json").read_text())
    assert artifact["mode"] == "quick"
    assert {"nproc", "cpu_model", "git_sha", "loadavg_1min_at_start",
            "noisy"} <= set(artifact["env"])
    assert (tmp_path / "kv_mix.trace.json").exists() == (trace == "1")


def test_fails_without_a_result_where_there_is_nothing_to_measure(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "kv_mix", "--seed", "3", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
