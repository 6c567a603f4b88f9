"""ROADMAP needle 2 as a gate: ``src/repro`` may shrink, not grow.

The ceiling is the physical line count (``wc -l``) the tree had when
the last simplification PR landed.  A PR that deletes code lowers it;
raising it is a deliberate, reviewed edit of this file — say in the PR
what the new lines buy.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")

#: PR 22 (one AM attempt loop in network/transport.py: the three
#: `_reliable_*` retransmit copies, the lossless/reliable forks and the
#: second rendezvous target block `_rdv_put_handshake` went, 1 069 ->
#: 973; `DISBase` inherits `RuntimeConfig` instead of re-listing it,
#: 78 -> 50; runtime.py +10 for the one-way give-up check): 21 732 ->
#: this.
SRC_LINES_CEILING = 21618


def _sources():
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def test_src_physical_lines_do_not_grow():
    total = 0
    for path in _sources():
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    assert total <= SRC_LINES_CEILING, (
        f"src/repro grew to {total} physical lines "
        f"(ceiling {SRC_LINES_CEILING})")


def test_src_keeps_the_file_count_the_frozen_bench_asserts():
    # bench/tests/test_bench_layers.py (frozen, outside tier-1) fails
    # below 101 source files; catch it here first.
    assert sum(1 for _ in _sources()) > 100
