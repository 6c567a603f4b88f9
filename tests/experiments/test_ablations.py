"""Shape claims of the ablation and extension rows (X5-X12) of the
experiment table, each read off ``EXPERIMENTS[name].run(**quick)`` —
the tables ``python -m repro <name> --quick`` prints."""

import json

from repro.experiments import EXPERIMENTS


def _rows(name, key):
    fig = EXPERIMENTS[name].run(**EXPERIMENTS[name].quick)
    json.dumps(fig.rows())      # what a campaign `figure` cell ships
    return {row[key]: row for row in fig.rows()}


def test_piggyback_beats_a_dedicated_address_fetch():
    rows = _rows("ablation_piggyback", "mode")
    on_data, explicit, disabled = (
        rows[m] for m in ("on-data", "explicit", "disabled"))
    # One round trip instead of two on first touch...
    assert on_data["elapsed_us"] < explicit["elapsed_us"]
    # ...and both leave a populated cache, unlike DISABLED, which
    # never learns an address and is the slowest of the three.
    assert on_data["hit_rate"] > 0.8 and explicit["hit_rate"] > 0.8
    assert disabled["hit_rate"] == 0.0
    assert disabled["elapsed_us"] >= on_data["elapsed_us"]


def test_pinning_policies_obtain_similar_results():
    rows = _rows("ablation_pinning", "policy")
    greedy = rows["pin-everything"]["improvement_pct"]
    chunked = rows["chunked"]["improvement_pct"]
    assert abs(greedy - chunked) < 8.0
    assert greedy > 10 and chunked > 10


def test_eviction_policies_differ_little_on_a_uniform_stream():
    (row,) = _rows("ablation_eviction", "capacity").values()
    for policy in ("lru", "fifo", "random"):
        assert 0.0 <= row[policy] <= 1.0
    # No recency structure to exploit: the paper's plain hash table
    # is justified.
    assert row["spread"] < 0.25


def test_fields_gain_needs_the_polling_progress_engine():
    (row,) = _rows("ablation_progress", "threads").values()
    assert row["polling_pct"] > 10.0
    assert row["interrupt_pct"] < row["polling_pct"] / 2


def test_cache_gain_is_a_property_of_the_fabric():
    gain = {machine: row["improvement_pct"] for machine, row
            in _rows("ablation_transports", "machine").items()}
    assert gain["marenostrum-gm"] > 15
    assert gain["bluegene-l"] > 10
    assert gain["power5-lapi"] > 10
    assert abs(gain["tcp-cluster"]) < 1.0    # the negative control


def test_eager_rendezvous_crossover_is_flat_small_and_sharp_large():
    rows = _rows("ablation_eager_threshold", "eager_max_kb")
    # A 2 KB message: with the pin-down cache warm, rendezvous and
    # eager are within a few percent — "requiring tuning".
    assert (abs(rows[1]["get_2kb_us"] - rows[16]["get_2kb_us"])
            < 0.15 * rows[16]["get_2kb_us"])
    # Mid/large messages: a too-high threshold keeps paying double
    # copies; the rendezvous (zero-copy) side wins clearly.
    assert rows[64]["get_32kb_us"] > 1.2 * rows[16]["get_32kb_us"]
    assert rows[256]["get_128kb_us"] > 1.2 * rows[16]["get_128kb_us"]


def test_corner_turn_gains_on_gm():
    gm = _rows("corner_turn", "machine")["marenostrum-gm"]
    assert gm["improvement_pct"] > 10
    assert gm["hit_rate"] > 0.6


def test_bulk_engine_pipelines_and_coalesces():
    at16 = _rows("bulk_pipeline", "remote_blocks")[16]
    # A 16-remote-block memget at the default window is at least 2x
    # faster in virtual time and 20% cheaper to simulate; pipelining
    # alone (no coalescing) must already overlap transfers.
    assert at16["full_speedup"] >= 2.0
    assert at16["events_saved_pct"] >= 20.0
    assert at16["pipeline_speedup"] > 1.2
