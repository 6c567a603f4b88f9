"""Sharded-core determinism: the pooled single core is the referee.

Two workload families run under shards ∈ {1, 2, 4}:

* the **Field mix** — the communication pattern of the paper's Field
  stressmark rewritten against shard boundaries (token puts + gather
  probes + closing barrier);
* the **fuzz-corpus skeleton** — every program in tests/fuzz/corpus
  replayed as a message-passing skeleton (same homing, same wire
  model, same collectives).

Every layout must produce byte-identical results: final memory images,
per-node digests, completion times, and the final virtual clock.  Raw
event *totals* legitimately differ across layouts (each extra shard
adds its own barrier-gate event per generation), so they are not
compared.  Both workloads' outcomes, events included, are also pinned
to the values a parent commit produced, which a change moving every
layout alike cannot pass."""

import glob
import hashlib
import os

import pytest

from repro.testing.generator import generate_program
from repro.testing.program import Program
from repro.workloads.sharded import field_nnodes, run_field_sharded

from tests.sim.shard_referees import run_corpus_sharded, run_field_reference

pytestmark = pytest.mark.shard

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "fuzz", "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return Program.loads(fh.read())


def _assert_field_match(got, ref, label):
    assert got["trace"] == ref["trace"], f"{label}: trace differs"
    assert got["field"] == ref["field"], f"{label}: field state differs"
    assert got["digest"] == ref["digest"], f"{label}: digests differ"
    assert got["now"] == ref["now"], f"{label}: final clock differs"


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _assert_corpus_match(got, ref, label):
    assert got["mem"] == ref["mem"], f"{label}: final memory differs"
    assert got["digests"] == ref["digests"], f"{label}: digests differ"
    assert got["finish"] == ref["finish"], f"{label}: finish times differ"
    assert got["now"] == ref["now"], f"{label}: final clock differs"


# ---------------------------------------------------------------------------
# Field mix vs the independent pooled reference
# ---------------------------------------------------------------------------

FIELD_NT = 32  # 8 nodes -> shard counts 1/2/4 all divide evenly


@pytest.mark.parametrize("nshards", [1, 2, 4])
def test_field_layouts_match_pooled_reference(nshards):
    assert nshards <= field_nnodes(FIELD_NT)
    ref = run_field_reference(FIELD_NT, ntokens=3, probes=2)
    got = run_field_sharded(FIELD_NT, nshards, ntokens=3, probes=2)
    _assert_field_match(got, ref, f"shards={nshards}")
    # The referee actually exercised the workload.
    assert len(ref["trace"]) == FIELD_NT * (3 * 2 + 1)
    assert ref["now"] > 0


#: The Field mix at FIELD_NT threads, 3 tokens and 2 probes, as the
#: parent commit of the one-wire change (0f953fc) produced it: one
#: outcome for the referee and every layout, and the event count of
#: each (a shard adds one barrier-gate event).  The layout tests above
#: cannot see a change that moves every layout the same way; these can.
FIELD_PIN = {
    "now": 171.2767578125,
    "trace": "0113b3fea18b006b",
    "field": "6ade1fa8fe5d454d",
    "digest": {0: 605278163846912786, 1: 3798503585926418795,
               2: 1981025957915931017, 3: 15052570703007363560,
               4: 9989557520384805985, 5: 2997928172035592981,
               6: 14442049538725558355, 7: 1515108230765231218},
    "events": {"reference": 1377, 1: 1377, 2: 1378, 4: 1380},
}


@pytest.mark.parametrize("layout", ["reference", 1, 2, 4])
def test_field_outcome_pinned_to_parent_commit(layout):
    if layout == "reference":
        got = run_field_reference(FIELD_NT, ntokens=3, probes=2)
    else:
        got = run_field_sharded(FIELD_NT, layout, ntokens=3, probes=2)
    assert got["now"] == FIELD_PIN["now"]
    assert _sha(got["trace"]) == FIELD_PIN["trace"]
    assert _sha(sorted((node, sorted(elems.items()))
                       for node, elems in got["field"].items())) \
        == FIELD_PIN["field"]
    assert got["digest"] == FIELD_PIN["digest"]
    assert got["events"] == FIELD_PIN["events"][layout]


# ---------------------------------------------------------------------------
# Fuzz-corpus skeleton across layouts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "corpus", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_corpus_skeleton_layout_invariant(corpus):
    prog = _load(corpus)
    base = run_corpus_sharded(prog, 1)
    assert base["mem"], "corpus program left no live objects to check"
    for nshards in (2, 4):
        if nshards > prog.nthreads:
            continue
        got = run_corpus_sharded(prog, nshards)
        _assert_corpus_match(got, base,
                             f"{os.path.basename(corpus)} shards={nshards}")


#: program -> (final clock, events at 1 and 2 shards, and hashes of
#: the final memory, the per-thread digests and finish times) of the
#: corpus skeleton at the parent commit of the one-wire change
#: (0f953fc), identical at both layouts but for the events.
CORPUS_PINS = {
    "seed0-22ops.json": (298.1252685546874, (120, 126), "db21e7021b3f4212",
                         "9a87482b2d37b165", "1a67d9a43196e062"),
    "seed3-26ops.json": (318.4550292968749, (158, 163), "5ad42ed5e214d77f",
                         "56bd51cd19e45ab2", "6de0faa5cf3b438a"),
    "seed5-32ops.json": (349.76333007812485, (143, 149), "cd6433400e851a13",
                         "29569a66071b2524", "3b3194f90ecc4927"),
    "seed9-18ops.json": (233.63759765625, (104, 109), "055c8f22008cdcdc",
                         "c36dca03c578f3ac", "fe052ab9b42638ce"),
}


@pytest.mark.parametrize("nshards", [1, 2])
@pytest.mark.parametrize("name", sorted(CORPUS_PINS))
def test_corpus_skeleton_pinned_to_parent_commit(name, nshards):
    now, events, mem, digests, finish = CORPUS_PINS[name]
    got = run_corpus_sharded(_load(os.path.join(CORPUS_DIR, name)),
                             nshards)
    assert got["now"] == now
    assert got["events"] == events[nshards - 1]
    assert _sha(sorted(got["mem"].items())) == mem
    assert _sha(sorted(got["digests"].items())) == digests
    assert _sha(sorted(got["finish"].items())) == finish


def test_fresh_fuzz_programs_layout_invariant():
    """Not just the frozen corpus: freshly generated programs must
    also be layout-invariant, so regressions in *new* op mixes are
    caught here rather than by the next fuzz campaign."""
    for seed in (101, 202):
        prog = generate_program(seed, n_ops=40, nthreads=4)
        base = run_corpus_sharded(prog, 1)
        for nshards in (2, 4):
            got = run_corpus_sharded(prog, nshards)
            _assert_corpus_match(got, base,
                                 f"seed={seed} shards={nshards}")
