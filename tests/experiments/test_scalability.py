"""Tests for the section-2 scalability-rationale experiments."""

from repro.experiments import EXPERIMENTS
from repro.experiments.scalability import (
    address_space_ablation,
    allocation_latency,
    directory_memory,
)


def test_directory_memory_svd_constant_table_linear():
    fig = directory_memory(node_counts=[2, 32, 512], objects=16)
    rows = fig.rows()
    # SVD footprint is machine-size independent.
    assert len({r["svd_bytes"] for r in rows}) == 1
    # The full table grows linearly with nodes.
    assert rows[1]["full_table_bytes"] == 16 * rows[0]["full_table_bytes"]
    # The cache is bounded by its capacity.
    assert rows[-1]["addr_cache_bytes"] <= 100 * 64
    assert rows[-1]["table_vs_svd"] == 512.0


def test_address_space_ablation_shows_blowup():
    fig = address_space_ablation(nodes=8, threads_per_node=2,
                                 allocs_per_thread=20)
    by_model = {r["model"]: r for r in fig.rows()}
    svd = by_model["svd"]
    ident = by_model["identical-addresses"]
    # Identical addresses consume roughly nodes x the per-node space
    # ("it tends to fragment the address space", section 2.1).
    assert ident["touched_mb"] > 4 * svd["touched_mb"]
    assert ident["blowup_vs_svd"] >= 4.0
    assert 0 <= svd["fragmentation"] <= 1
    assert 0 <= ident["fragmentation"] <= 1
    # At the configuration EXPERIMENTS.md records (X2: 16 nodes x 4
    # threads) the blow-up approaches the node count.
    fig = address_space_ablation(**EXPERIMENTS["address_ablation"].full)
    assert fig.rows()[1]["model"] == "identical-addresses"
    assert fig.rows()[1]["blowup_vs_svd"] >= 8.0


def test_address_space_ablation_deterministic():
    a = address_space_ablation(nodes=4, allocs_per_thread=10, seed=3)
    b = address_space_ablation(nodes=4, allocs_per_thread=10, seed=3)
    assert a.rows() == b.rows()


def test_allocation_latency_sublinear():
    fig = allocation_latency(node_counts=[2, 8, 32])
    rows = fig.rows()
    t2, t32 = rows[0]["alloc_us"], rows[-1]["alloc_us"]
    # 16x more nodes must cost far less than 16x the latency
    # (log-tree collective).
    assert t32 < 6 * t2
    # Per-node cost must *drop* with scale.
    assert rows[-1]["per_node_ns"] < rows[0]["per_node_ns"]
