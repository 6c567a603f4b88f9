"""The ``python -m repro`` subcommand registry: every documented
command line parses, no subcommand gained or lost an option, each
shared option is defined once and validated the same way everywhere."""

import argparse
import glob
import importlib.util
import inspect
import json
import os
import re
import shlex

import pytest

from repro.__main__ import build_parser, main
from repro.campaign.cells import KINDS, run_cell
from repro.experiments import EXPERIMENTS, FigureResult

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# -- docs cannot drift from the parser ---------------------------------

_DOC_FILES = (["README.md", ".github/workflows/ci.yml"]
              + sorted(os.path.relpath(p, ROOT) for p in
                       glob.glob(os.path.join(ROOT, "docs", "*.md"))))
_COMMAND = re.compile(r"^\s*(?:- )?(?:run: |\$ |if )?python -m repro (.*)$")


def _documented_commands(rel):
    """``(line number, argv)`` of every ``python -m repro ...`` that
    *starts* a shell line of one doc file (prose mentions are not
    commands), joined with its continuation lines, comments and shell
    tails stripped."""
    with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        m = _COMMAND.match(line)
        if not m:
            continue
        text, j = m.group(1), i
        # "\" continues a shell line; a YAML folded scalar continues
        # with a bare, deeper-indented "--flag" line.
        while text.endswith("\\") or (
                j + 1 < len(lines)
                and lines[j + 1].lstrip().startswith("--")):
            j += 1
            text = text.rstrip("\\") + " " + lines[j].strip()
        text = re.split(r"\s#|\s\||;", text.rstrip("\\"))[0]
        if re.search(r"[<\[]|\.\.\.", text):
            continue            # a usage synopsis, not a command
        yield i + 1, shlex.split(text)


@pytest.mark.parametrize("rel", _DOC_FILES)
def test_documented_command_lines_parse(rel, capsys):
    parser = build_parser()
    for lineno, argv in _documented_commands(rel):
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{rel}:{lineno}: python -m repro "
                        f"{' '.join(argv)}\n{capsys.readouterr().err}")
        assert callable(args.func)


def test_the_docs_actually_document_commands():
    documented = [argv for rel in _DOC_FILES
                  for _, argv in _documented_commands(rel)]
    assert len(documented) >= 30
    assert {"run", "trace", "kvtraffic", "fuzz", "report",
            "campaign"} <= {argv[0] for argv in documented}


# -- no new option, none lost ------------------------------------------

#: Flag -> default of every subcommand at the parent commit (968c92b),
#: where ``run``/``trace``/``kvtraffic``/``fuzz`` each built their own
#: parser.  Adding, dropping or re-defaulting an option is a deliberate
#: edit of this table; the one since: the second fault language's two
#: flags (trace spec + trace seed) left ``run|trace|kvtraffic`` and
#: ``kvtraffic`` gained ``--fault-profile``/``--fault-seed``.
PARENT_FLAGS = {
    "campaign": {"--list-cells": False, "--list-specs": False,
                 "--max-cells": None, "--no-resume": False,
                 "--render-only": False, "--run-dir": None,
                 "--spec": "smoke", "--workers": None},
    "fuzz": {"--corpus": None, "--fault-profile": "chaos",
             "--fault-seed": None, "--faults": False, "--kv": False,
             "--matrix": None, "--no-shrink": False, "--nthreads": 4,
             "--ops": 200, "--quick": False, "--seed": [0],
             "--trace-dir": None},
    "kvtraffic": {"--fault-profile": None, "--fault-seed": None,
                  "--machine": "gm", "--nclients": 32, "--nnodes": 8,
                  "--repair-policy": None, "--requests": 100000,
                  "--seed": 0, "--shards": 1, "--skew": 0.9,
                  "--slo-target-us": 0.0,
                  "--slo-window-us": 5000.0, "--trace-dir": None},
    "report": {"--out": None, "run_dir": None},
    "run": {"--fault-profile": None, "--fault-seed": None,
            "--machine": "gm", "--nthreads": 8,
            "--quick": False, "--repair-policy": None, "--seed": 1,
            "--shards": None, "workload": None},
    "trace": {"--breakdown": False, "--fault-profile": None,
              "--fault-seed": None, "--format": None,
              "--machine": "gm",
              "--max-events": None, "--nthreads": 8,
              "--out": "trace-out", "--quick": False,
              "--repair-policy": None, "--sample-us": 100.0,
              "--seed": 1, "--shards": 1, "workload": None},
}
#: The twenty rows of the experiment table (E1-E8, X1-X12) — eight
#: of them the ablation/extension sweeps that were pytest-benchmark
#: scripts, subcommands now because they are rows — and ``all``.
FIGURES = ("ablation_eager_threshold", "ablation_eviction",
           "ablation_piggyback", "ablation_pinning", "ablation_progress",
           "ablation_transports", "address_ablation", "alloc_latency",
           "bulk_pipeline", "capacity", "corner_turn",
           "directory_memory", "fig6_get", "fig6_put", "fig7", "fig8a",
           "fig8b", "fig9a", "fig9b", "miss_overhead", "all")


def _subparsers():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _flags(parser):
    return {(a.option_strings[0] if a.option_strings else a.dest):
            a.default for a in parser._actions
            if not isinstance(a, argparse._HelpAction)}


def test_subcommand_set_is_the_parents():
    assert set(_subparsers()) == set(PARENT_FLAGS) | set(FIGURES)


@pytest.mark.parametrize("command", sorted(PARENT_FLAGS))
def test_flag_set_and_defaults_equal_the_parents(command):
    assert _flags(_subparsers()[command]) == PARENT_FLAGS[command]


@pytest.mark.parametrize("figure", FIGURES)
def test_figures_take_only_quick(figure):
    assert _flags(_subparsers()[figure]) == {"--quick": False}


def test_shared_options_are_defined_exactly_once():
    """One ``add_argument`` call per shared flag in all of src/repro
    (there were three to four copies of each)."""
    sources = []
    for path in glob.glob(os.path.join(ROOT, "src", "repro", "**",
                                       "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    text = "\n".join(sources)
    for flag in ("--fault-profile", "--fault-seed", "--repair-policy",
                 "--shards", "--machine",
                 "--nthreads", "--seed", "--quick"):
        n = len(re.findall(r'add_argument\(\s*"%s"' % flag, text))
        assert n == 1, f"{flag} is defined {n} times"


# -- one experiment table behind every figure surface ------------------

def test_experiment_table_is_the_figure_set():
    assert set(EXPERIMENTS) == set(FIGURES) - {"all"}
    assert len(EXPERIMENTS) == 20
    # One way to sweep: a table row through `figure`, or a traffic
    # cell — no per-point copies of a figure's parameters.
    assert set(KINDS) == {"figure", "kvtraffic", "lossy", "noop"}
    # The campaign's figure cell accepts exactly the same names, and
    # an unknown one is the one ValueError that lists them.
    with pytest.raises(ValueError) as exc:
        run_cell("figure", {"figure": "fig42"})
    assert str(exc.value) == (
        "unknown figure 'fig42' (expected one of: "
        + ", ".join(sorted(EXPERIMENTS)) + ")")
    with pytest.raises(TypeError):
        EXPERIMENTS["fig10"] = EXPERIMENTS["fig7"]


def test_presets_bind_to_their_runner_and_serialise():
    for exp in EXPERIMENTS.values():
        for preset in (exp.quick, exp.full):
            inspect.signature(exp.run).bind(**preset)   # TypeError if not
            json.dumps(dict(preset))        # a spec file can carry it


def test_make_experiments_is_a_loop_over_the_table(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_experiments",
        os.path.join(ROOT, "scripts", "make_experiments.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert set(script.NOTES) == set(EXPERIMENTS)

    calls = []

    def stub(name):
        def run(**kwargs):
            calls.append((name, kwargs))
            fig = FigureResult(figure_id=name, title="stub",
                               columns=["x"])
            fig.add(x=1)
            return fig
        return run

    monkeypatch.setattr(script, "EXPERIMENTS", {
        name: exp._replace(run=stub(name))
        for name, exp in EXPERIMENTS.items()})
    out = tmp_path / "EXPERIMENTS.md"
    for flags, preset in ((["--quick"], "quick"), ([], "full")):
        del calls[:]
        assert script.main(flags + ["--out", str(out)]) == 0
        assert calls == [(name, dict(getattr(exp, preset)))
                         for name, exp in EXPERIMENTS.items()]
    text = out.read_text(encoding="utf-8")
    headings = [line[3:] for line in text.splitlines()
                if line.startswith("## ")]
    # One section per row, in table order, then the closing note.
    assert headings[:-1] == [exp.heading
                             for exp in EXPERIMENTS.values()]
    assert headings[:-1] == sorted(
        headings[:-1], key=lambda h: (h[0], int(h[1:].split()[0])))
    assert headings[-1].startswith("Note")
    assert [line for line in text.splitlines()
            if line.endswith(": stub")] == [
                f"{name}: stub" for name in EXPERIMENTS]


# -- one validation, one message ---------------------------------------

def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()[-1].split("error: ")[1]


_SHARDABLE = (["run", "field"], ["trace", "field"], ["kvtraffic"])


def test_shards_zero_is_one_argparse_error_everywhere(capsys):
    messages = {_usage_error(cmd + ["--shards", "0"], capsys)
                for cmd in _SHARDABLE}
    assert messages == {"argument --shards: must be >= 1"}


def test_more_shards_than_nodes_is_one_argparse_error_everywhere(capsys):
    messages = {
        _usage_error(["run", "field", "--shards", "9"], capsys),
        _usage_error(["trace", "field", "--shards", "9"], capsys),
        _usage_error(["kvtraffic", "--nnodes", "2", "--shards", "9"],
                     capsys)}
    assert messages == {"--shards 9 exceeds the 2 node(s) of this run"}


def test_kvtraffic_rejects_params_it_cannot_run(capsys):
    # The field check runs before the shard check: --nnodes 0 names
    # the node count, not "--shards 1 exceeds the 0 node(s)".
    assert _usage_error(["kvtraffic", "--nnodes", "0"], capsys) \
        == "TrafficParams.nnodes must be >= 1, got 0"
    assert _usage_error(["kvtraffic", "--nclients", "0"], capsys) \
        == "TrafficParams.nclients must be >= 1, got 0"
    assert _usage_error(["kvtraffic", "--requests", "0"], capsys) \
        == "TrafficParams.requests must be >= 1, got 0"


def test_kvtraffic_rejects_a_skew_that_is_no_zipf_exponent(capsys):
    # Each of these used to run a whole traffic experiment and exit 0.
    for bad in ("nan", "-1", "inf"):
        assert _usage_error(["kvtraffic", "--skew", bad], capsys) == (
            f"TrafficParams.zipf_s must be finite and >= 0, got {float(bad)}")


@pytest.mark.parametrize("gap", [0.0, -2.0, float("nan"), float("inf")])
def test_traffic_params_reject_a_mean_gap_no_arrival_process_has(gap):
    # Only each shard's PoissonArrivals checked the gap, late, and a
    # NaN passed even that check.
    from repro.workloads.kv_traffic import TrafficParams
    with pytest.raises(ValueError, match=r"^TrafficParams\.mean_gap_us "
                                         r"must be finite and > 0, got "):
        TrafficParams(mean_gap_us=gap)
    TrafficParams(zipf_s=0.0)           # a uniform key draw is fine


@pytest.mark.parametrize("gap", [0.0, -2.0, float("nan"), float("inf")])
def test_poisson_arrivals_reject_a_gap_they_cannot_draw(gap):
    # The arrival process is public on its own, and a NaN or an
    # infinite gap passed its check.
    from repro.workloads import PoissonArrivals
    with pytest.raises(ValueError, match=r"^mean_gap_us must be finite "
                                         r"and > 0, got "):
        PoissonArrivals(gap)


_FLOAT_OPTIONS = {
    "--sample-us": (["trace", "pointer"], "must be >= 0"),
    "--slo-target-us": (["kvtraffic"], "must be >= 0"),
    "--slo-window-us": (["kvtraffic", "--slo-target-us", "10"],
                        "must be > 0"),
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", sorted(_FLOAT_OPTIONS))
def test_non_finite_float_options_are_argparse_errors(flag, value, capsys):
    # NaN fails the bound; an infinite interval or target used to run
    # and print "infus windows" or "target infus".
    cmd, bound = _FLOAT_OPTIONS[flag]
    expected = bound if value == "nan" else "must be finite"
    assert _usage_error(cmd + [flag, value], capsys) \
        == f"argument {flag}: {expected}"


def test_thread_and_op_counts_below_one_are_argparse_errors(capsys):
    # A count the run cannot use is a usage error up front, not a
    # traceback from deep in the run or a silently resized program.
    for cmd in (["run", "pointer"], ["trace", "pointer"], ["fuzz"]):
        for bad in ("0", "-1"):
            assert _usage_error(cmd + ["--nthreads", bad], capsys) \
                == "argument --nthreads: must be >= 1"
    for bad in ("0", "-5"):
        assert _usage_error(["fuzz", "--ops", bad], capsys) \
            == "argument --ops: must be >= 1"


def test_negative_counts_and_intervals_are_argparse_errors(capsys):
    # Unchecked, each would run as something else: a campaign of all
    # cells but one, a trace that records nothing, a sampler or SLO
    # monitor silently off, or a ValueError traceback from the monitor.
    for argv, message in (
            (["kvtraffic", "--slo-target-us", "10",
              "--slo-window-us", "0"],
             "argument --slo-window-us: must be > 0"),
            (["kvtraffic", "--slo-target-us", "-5"],
             "argument --slo-target-us: must be >= 0"),
            (["trace", "pointer", "--sample-us", "-5"],
             "argument --sample-us: must be >= 0"),
            (["trace", "pointer", "--max-events", "-1"],
             "argument --max-events: must be >= 1"),
            (["trace", "pointer", "--max-events", "0"],
             "argument --max-events: must be >= 1"),
            (["campaign", "--max-cells", "-1"],
             "argument --max-cells: must be >= 0"),
            (["campaign", "--workers", "-1"],
             "argument --workers: must be >= 0")):
        assert _usage_error(argv, capsys) == message, argv
    # The bounds themselves still parse: 0 workers is in-process, 0
    # sampling and 0 SLO target are "off".
    args = build_parser().parse_args(
        ["campaign", "--workers", "0", "--max-cells", "0"])
    assert (args.workers, args.max_cells) == (0, 0)
    args = build_parser().parse_args(
        ["trace", "pointer", "--sample-us", "0", "--max-events", "1"])
    assert (args.sample_us, args.max_events) == (0.0, 1)
    assert build_parser().parse_args(
        ["kvtraffic", "--slo-target-us", "0"]).slo_target_us == 0.0


def test_unknown_machine_is_one_argparse_error_everywhere(capsys):
    messages = {_usage_error(cmd + ["--machine", "bogus"], capsys)
                for cmd in (["run", "pointer"], ["trace", "pointer"],
                            ["kvtraffic"])}
    (message,) = messages
    assert message.startswith(
        "argument --machine: invalid choice: 'bogus'")


def test_repair_policy_needs_a_fault_source(capsys):
    for cmd in (["run", "pointer"], ["trace", "pointer"],
                ["kvtraffic"]):
        message = _usage_error(
            cmd + ["--repair-policy", "do_nothing"], capsys)
        assert message == "--repair-policy needs --fault-profile to observe"


def test_bad_fault_specs_are_argparse_errors(capsys):
    assert "unknown fault profile" in _usage_error(
        ["run", "pointer", "--fault-profile", "nope"], capsys)
    assert "unknown fault profile" in _usage_error(
        ["fuzz", "--faults", "--fault-profile", "nope"], capsys)
    for cmd in (["trace", "pointer"], ["kvtraffic"]):
        assert "unknown fault profile" in _usage_error(
            cmd + ["--fault-profile", "nope"], capsys)
    # Malformed rules in outside JSON (a traceback each, before the
    # one ``from_json``): an unknown rule key, a mistyped segment key,
    # a non-numeric value.
    for spec, named in (
            ('{"links":[{"segments":[{"loss":0.1}],"bogus":1}]}',
             "links[0]: unknown keys ['bogus']"),
            ('{"links":[{"segments":[{"los":0.1}]}]}',
             "links[0].segments[0]: unknown keys ['los']"),
            ('{"links":[{"segments":[{"loss":"x"}]}]}',
             "links[0].segments[0].loss must be a number, got 'x'")):
        for cmd in (["run", "pointer", "--quick"], ["kvtraffic"],
                    ["fuzz", "--faults"]):
            assert named in _usage_error(
                cmd + ["--fault-profile", spec], capsys)


_STATIC = ("drop", "dup", "delay", "stall", "pin", "chaos")
_SHAPES = ("flap", "burst", "degrade", "gray")


@pytest.mark.parametrize("name", _STATIC + _SHAPES)
def test_every_profile_name_resolves_everywhere(name):
    """One flag family: the six canned plans and the four shapes go
    through the one resolver and every fault-plane parser."""
    from repro.faults import FaultPlan, resolve_profile
    from repro.obs.cli import resolve_fault_plane

    plan = resolve_profile(name, fault_seed=7, nnodes=8)
    assert (plan.name, plan.seed) == (name, 7) and not plan.empty
    assert FaultPlan.from_json(plan.to_json()) == plan
    for cmd in (["run", "pointer"], ["trace", "pointer"], ["kvtraffic"]):
        args = build_parser().parse_args(
            cmd + ["--fault-profile", name, "--fault-seed", "7",
                   "--repair-policy", "do_nothing"])
        assert resolve_fault_plane(args, 8) == (plan, "do_nothing")


@pytest.mark.shard
def test_kvtraffic_honours_exactly_the_link_rule_subset(capsys):
    # Static link loss is in the subset: the drop profile runs and the
    # harness retransmits around it, under a repair policy too.
    for extra in ([], ["--repair-policy", "retransmit_tuning"]):
        assert main(["kvtraffic", "--requests", "5000", "--shards", "2",
                     "--fault-profile", "drop", "--fault-seed", "3"]
                    + extra) == 0
        out = capsys.readouterr().out
        m = re.search(r"lossy fabric: (\d+) exhausted", out)
        assert m and int(m.group(1)) == 0
        noisy = re.findall(r"\((\d+)t/(\d+)r\)", out)
        assert noisy and all(int(r) > 0 for _, r in noisy)
        assert ("policy retransmit_tuning:" in out) == bool(extra)
    # What it cannot model is one named capability error, exit 2.
    for name, cannot in (("dup", "duplicate > 0"),
                         ("delay", "delay_prob < 1"),
                         ("stall", "nic_stalls, handler_stalls"),
                         ("pin", "pin_budgets"),
                         ("chaos", "pin_budgets, duplicate > 0")):
        message = _usage_error(
            ["kvtraffic", "--fault-profile", name], capsys)
        assert message.startswith(
            "the kv traffic harness models link loss, corruption and "
            f"standing delay only; fault plan '{name}' also has: ")
        assert cannot in message


@pytest.mark.shard
def test_a_quiet_planned_run_lists_no_noisy_link(tmp_path, capsys):
    # CI's lossy smoke: the flap never fires inside the run, so no
    # link times out or retries, and neither kvtraffic nor the report
    # lists one as noisy.
    out_dir = tmp_path / "run"
    assert main(["kvtraffic", "--requests", "5000", "--shards", "2",
                 "--fault-profile", "flap", "--fault-seed", "7",
                 "--repair-policy", "disable_and_repair",
                 "--trace-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "lossy fabric: 0 exhausted request(s); noisy links: none" in out
    assert "(0t/0r)" not in out
    assert main(["report", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "noisy links: none (no timeout or retry)" in out
    assert "deliveries" not in out


def test_sharded_run_and_trace_reject_the_same_combinations(capsys):
    for cmd in ("run", "trace"):
        assert "field stressmark only" in _usage_error(
            [cmd, "pointer", "--shards", "2"], capsys)
        assert "--shards excludes" in _usage_error(
            [cmd, "field", "--shards", "2", "--fault-profile", "flap"],
            capsys)


# -- run ---------------------------------------------------------------

def test_cli_run_pointer_quick(capsys):
    assert main(["run", "pointer", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("run pointer: ")
    assert "remote ops" in out and "cache hit rate" in out
    assert "faults:" not in out


def test_cli_run_under_a_fault_profile_is_deterministic(capsys):
    argv = ["run", "pointer", "--quick", "--fault-profile", "drop",
            "--fault-seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    injected = int(re.search(r"faults: (\d+) injected", first).group(1))
    assert injected > 0
    assert main(argv) == 0
    wall = re.compile(r"\(\d+\.\ds\)")
    assert wall.sub("", capsys.readouterr().out) == wall.sub("", first)


@pytest.mark.shard
def test_cli_run_field_sharded(capsys):
    assert main(["run", "field", "--shards", "2", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("run field --shards 2: ")
    assert "  sync: " in out and "channel msgs" in out
    assert "  shard 0: nodes 0..0" in out and "  shard 1: " in out
