"""Tests for the section 4.5 capacity/speedup compromise."""

from repro.experiments.capacity import capacity_speedup


def test_capacity_curve_saturates_at_working_set():
    fig = capacity_speedup(threads=32, nodes=8,
                           capacities=[0, 2, 8, 100], seed=1)
    rows = {r["capacity"]: r for r in fig.rows()}
    # Capacity 0: all misses, improvement ~0 (just miss overhead).
    assert rows[0]["hit_rate"] == 0.0
    assert abs(rows[0]["improvement_pct"]) < 5.0
    # Improvement grows with capacity...
    assert rows[2]["improvement_pct"] < rows[100]["improvement_pct"]
    # ...and saturates once the 7-entry working set fits.
    assert rows[8]["improvement_pct"] > 0.85 * rows[100]["improvement_pct"]
    assert rows[8]["hit_rate"] > 0.85


def test_capacity_rows_monotone_hit_rate():
    fig = capacity_speedup(threads=32, nodes=8,
                           capacities=[2, 4, 8, 16], seed=2)
    hits = fig.series("hit_rate")
    assert all(a <= b + 0.02 for a, b in zip(hits, hits[1:]))
    # ...and the speedup follows: half the working set vs all of it.
    rows = {r["capacity"]: r for r in fig.rows()}
    assert rows[4]["improvement_pct"] < rows[16]["improvement_pct"]
