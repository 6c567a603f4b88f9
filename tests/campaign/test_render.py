"""Campaign rendering: tables, the ASCII CDF figure, one file per
figure cell."""

import os

from repro.campaign.render import render_campaign, render_cdf_figure


def _cell(kind, payload, cid, status="ok"):
    return {"id": cid, "kind": kind, "params": {}, "seed": 0,
            "status": status, "payload": payload}


def test_cdf_figure_overlays_every_series():
    a = [[10.0, 0.5], [20.0, 1.0]]
    b = [[10.0, 0.3], [40.0, 1.0]]
    text = render_cdf_figure([("fast", a), ("slow", b)], "t")
    assert "t" in text.splitlines()[0]
    body = "\n".join(text.splitlines()[1:])
    assert "o" in body and "x" in body   # both markers drawn
    assert "fast" in text and "slow" in text
    assert "p50=" in text and "p99=" in text
    assert "1.00" in text and "0.50" in text and "0.00" in text


def test_cdf_figure_empty_series():
    assert "no completed flows" in render_cdf_figure(
        [("a", [])], "t")


def test_render_campaign_writes_figures(tmp_path):
    kv_payload = {
        "zipf_s": 0.9, "shards": 1, "requests": 100, "hit_rate": 0.2,
        "p50_us": 16.4, "p99_us": 25.0,
        "fct_cdf": [[10.0, 0.5], [30.0, 1.0]],
    }
    lossy = [
        {"shape": "flap", "policy": p, "requests": 100, "failures": 0,
         "p50_us": 16.4, "p99_us": q, "decisions": 2,
         "fct_cdf": [[10.0, 0.5], [q, 1.0]]}
        for p, q in (("do_nothing", 54.0),
                     ("disable_and_repair", 19.8))]
    outcomes = [
        _cell("kvtraffic", kv_payload, "kv-a"),
        _cell("lossy", lossy[0], "lo-a"),
        _cell("lossy", lossy[1], "lo-b"),
    ]
    paths = render_campaign(str(tmp_path), "t", outcomes)
    names = {os.path.basename(p) for p in paths}
    assert {"campaign_kvtraffic.txt", "kv_fct_cdf.txt",
            "campaign_lossy.txt", "lossy_flap.txt",
            "campaign_report.txt"} <= names
    flap = open(os.path.join(str(tmp_path), "figures",
                             "lossy_flap.txt")).read()
    assert "repair policy" in flap
    assert "do_nothing" in flap and "disable_and_repair" in flap
    report = open(os.path.join(str(tmp_path),
                               "campaign_report.txt")).read()
    assert "campaign: t" in report
    assert "do_nothing" in report


def _figure(name, value):
    return {"figure": name, "figure_id": "F", "title": f"{name} table",
            "columns": ["x", "y"], "rows": [{"x": 1, "y": value}]}


def test_render_campaign_writes_one_file_per_figure_cell(tmp_path):
    # Regression: two cells of one experiment (a leg-level "seeds":
    # [1, 2], or a swept runner keyword) both rendered to
    # figures/<figure>.txt — only the last survived, under a path
    # the CLI reported twice.
    outcomes = [_cell("figure", _figure("fig7", 1.5), "fig7-s1"),
                _cell("figure", _figure("fig7", 2.5), "fig7-s2"),
                _cell("figure", _figure("fig9a", 3.5), "fig9a-s0")]
    paths = render_campaign(str(tmp_path), "t", outcomes)
    assert len(set(paths)) == len(paths) == 4
    assert sorted(os.listdir(os.path.join(str(tmp_path), "figures"))) == [
        "fig7.fig7-s1.txt", "fig7.fig7-s2.txt", "fig9a.txt"]
    for cid, value in (("fig7-s1", "1.50"), ("fig7-s2", "2.50")):
        text = open(os.path.join(str(tmp_path), "figures",
                                 f"fig7.{cid}.txt")).read()
        assert value in text and f"[{cid}]" in text
    # A figure with one cell keeps its plain name and title.
    single = open(os.path.join(str(tmp_path), "figures",
                               "fig9a.txt")).read()
    assert single.splitlines()[0] == "fig9a table"


def test_two_seeds_of_one_figure_render_two_files(tmp_path, capsys):
    # The same through the real CLI, spec to rendered files.
    from repro.__main__ import main

    spec = ('{"name": "t", "workers": 0, "legs": [{"kind": "figure", '
            '"matrix": {"figure": ["fig7"]}, "fixed": {"sizes": [8], '
            '"reps": 1}, "seeds": [1, 2]}]}')
    assert main(["campaign", "--spec", spec,
                 "--run-dir", str(tmp_path)]) == 0
    rendered = [line.split()[-1] for line
                in capsys.readouterr().out.splitlines()
                if line.startswith("  rendered") and "fig7" in line]
    assert len(set(rendered)) == len(rendered) == 2
    assert all(os.path.exists(p) for p in rendered)


def test_render_campaign_lists_degenerate_cells(tmp_path):
    outcomes = [
        _cell("figure", _figure("fig7", 1.5), "f-ok"),
        dict(_cell("figure", None, "f-bad", status="degenerate"),
             error="elapsed 0.0 <= 0"),
    ]
    render_campaign(str(tmp_path), "t", outcomes)
    report = open(os.path.join(str(tmp_path),
                               "campaign_report.txt")).read()
    assert "degenerate cells" in report
    assert "f-bad" in report
