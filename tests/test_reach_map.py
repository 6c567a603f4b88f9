"""The reach map (``scripts/reach.py``) keys every ``def`` in
``src/repro`` the way a code object reports it, its declared list
cannot rot (each entry names a function that exists and says why the
product keeps it), and its run list holds every command CI runs."""

import importlib
import importlib.util
import inspect
import os
import re

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reach():
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(ROOT, "scripts", "reach.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_declared_function_exists_and_has_a_reason():
    reach = _reach()
    defined = {f"{rel}::{qual}" for rel, qual, *_ in reach.functions()}
    assert not sorted(set(reach.DECLARED) - defined)
    blank = sorted(key for key, why in reach.DECLARED.items()
                   if not (isinstance(why, str) and why.strip()))
    assert not blank


def test_a_def_is_keyed_by_its_code_objects_first_line():
    # A decorated def starts at its first decorator, as co_firstlineno
    # does; a key that missed that would report every property as
    # unreached.
    reach = _reach()
    checked = decorated = 0
    for rel, qual, name, first, _last, owner in reach.functions():
        if owner is not None:
            continue
        module = importlib.import_module(
            "repro." + rel[:-3].replace("/", ".").replace(".__init__", ""))
        obj = module
        for part in qual.split("."):
            obj = inspect.getattr_static(obj, part, None)
        obj = getattr(obj, "fget", None) or getattr(obj, "__func__", obj)
        code = getattr(obj, "__code__", None)
        if code is None or code.co_name != name:
            continue        # a later def of the same name replaced it
        assert code.co_firstlineno == first, (rel, qual)
        checked += 1
        with open(os.path.join(reach.REPRO, rel)) as fh:
            decorated += fh.read().splitlines()[first - 1].lstrip() \
                .startswith("@")
    assert checked > 500 and decorated > 50, (checked, decorated)


def _ci_commands():
    """The arguments of every ``python -m repro`` command in CI, with
    continuation lines joined and the shell around them cut off."""
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as fh:
        jobs = yaml.safe_load(fh)["jobs"]
    out = set()
    for job in jobs.values():
        for step in job["steps"]:
            script = step.get("run", "").replace("\\\n", " ")
            for found in re.findall(r"python -m repro (.*)", script):
                out.add(" ".join(re.split(r"[|;&>]", found)[0].split()))
    return out


def test_the_run_list_holds_every_ci_command():
    # A run's label is its command with the temp dir taken out, so a CI
    # smoke the map does not run (or runs with other arguments) shows.
    commands = _ci_commands()
    assert len(commands) >= 13, sorted(commands)
    labels = {label for label, _run in _reach().runs()}
    assert not sorted(commands - labels)
