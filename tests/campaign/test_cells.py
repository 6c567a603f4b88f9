"""The ``figure`` cell kind: a row of the experiment table at its
quick preset, overridden only by the spec params its runner takes;
and the two traffic kinds' payloads."""

from repro.campaign.cells import run_cell
from repro.campaign.spec import SPECS
from repro.workloads.micro import FIG7_SIZES


def _sizes(payload):
    return [row["size_bytes"] for row in payload["rows"]]


def test_fig7_runs_on_its_own_axis_not_the_legs():
    # Regression: the paper campaign printed Figure 7 ("small
    # messages", 1 B - 8 KB) on Figure 6's axis, up to 4 MB, because
    # the cell forwarded the sizes its leg shared with fig6_get/put.
    (cell,) = [c for c in SPECS["paper"]().expand()
               if c.param_dict()["figure"] == "fig7"]
    payload = run_cell(cell.kind, cell.param_dict(), cell.seed)
    assert _sizes(payload) == list(FIG7_SIZES)
    assert payload["figure_id"] == "Figure 7"


def test_explicit_sizes_win_and_foreign_params_are_ignored():
    # The smoke spec pins fig7's sizes; a leg's `fixed` block is shared
    # across figures, so keys the runner has no keyword for (`scales`,
    # `seeds`, anything else) pass through harmlessly.
    payload = run_cell("figure", {
        "figure": "fig7", "sizes": [1, 64, 1024, 8192], "reps": 1,
        "scales": [[8, 2]], "seeds": [1], "not_a_keyword": True})
    assert _sizes(payload) == [1, 64, 1024, 8192]


def test_paper_spec_names_the_paper_figures_and_no_scales():
    cells = SPECS["paper"]().expand()
    assert [c.param_dict() for c in cells] == [
        {"figure": name} for name in (
            "fig6_get", "fig6_put", "fig7", "fig8a", "fig8b", "fig9a",
            "fig9b", "miss_overhead")]
    assert {c.kind for c in cells} == {"figure"}


def test_traffic_cells_report_both_paths_quantiles():
    kv = run_cell("kvtraffic", {"requests": 2000, "zipf_s": 1.2}, 7)
    assert kv["requests"] >= 2000 and kv["fct_cdf"]
    # The one-sided (hit) and AM (miss) subpopulations, p50 and p99.
    assert 0 < kv["hit_p50_us"] <= kv["hit_p99_us"]
    assert 0 < kv["miss_p50_us"] <= kv["miss_p99_us"]
    assert kv["hit_p99_us"] < kv["miss_p50_us"]
    lossy = run_cell("lossy", {"requests": 2000, "shape": "gray",
                               "trace": "compressed", "trace_seed": 7,
                               "policy": "do_nothing"}, 9)
    assert (lossy["shape"], lossy["policy"]) == ("gray", "do_nothing")
    assert lossy["fct_cdf"] and lossy["p50_us"] <= lossy["p99_us"]
