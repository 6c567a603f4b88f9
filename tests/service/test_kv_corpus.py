"""Replay the checked-in kv regression corpus.

``tests/service/corpus/`` holds fixed generator outputs picked so the
set covers both access paths and all four kv op kinds.  Each program
must replay cleanly across the quick matrix, and — shard-marked — the
sharded skeleton must produce bit-identical merged state for shard
layouts {1, 2, 4}, with every surviving kv image decoding to exactly
the oracle's flat dict.
"""

import glob
import os

import pytest

from repro.testing import (
    Program,
    QUICK_MATRIX,
    run_differential,
    run_oracle,
    validate,
)

from tests.sim.shard_referees import run_corpus_sharded, skeleton_kv_dict

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
IDS = [os.path.basename(p) for p in CORPUS]


def _load(path: str) -> Program:
    with open(path, encoding="utf-8") as fh:
        program = Program.loads(fh.read())
    validate(program)
    return program


def test_corpus_is_not_empty():
    assert CORPUS, f"no programs in {CORPUS_DIR}"


def test_corpus_covers_both_paths_and_all_kv_ops():
    kinds, accesses = set(), set()
    for path in CORPUS:
        for op in _load(path).iter_ops():
            kinds.add(op.kind)
            if op.kind == "kv_create":
                accesses.add(op.args["access"])
    assert {"kv_get", "kv_put", "kv_del", "kv_mget"} <= kinds
    assert accesses == {"onesided", "rpc"}


@pytest.mark.parametrize("path", CORPUS, ids=IDS)
def test_corpus_program_replays_clean(path):
    program = _load(path)
    divs = run_differential(program, configs=list(QUICK_MATRIX))
    assert not divs, "\n\n".join(d.describe() for d in divs)


@pytest.mark.parametrize("path", CORPUS, ids=IDS)
def test_corpus_json_roundtrip(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    program = Program.loads(text)
    assert program.dumps() == Program.loads(program.dumps()).dumps()


# ---------------------------------------------------------------------------
# Sharded layout invariance + oracle agreement
# ---------------------------------------------------------------------------

@pytest.mark.shard
@pytest.mark.parametrize("path", CORPUS, ids=IDS)
def test_corpus_sharded_layout_invariance(path):
    program = _load(path)
    base = run_corpus_sharded(program, 1)
    for nshards in (2, 4):
        r = run_corpus_sharded(program, nshards)
        assert r["mem"] == base["mem"]
        assert r["kvinfo"] == base["kvinfo"]
        assert r["digests"] == base["digests"]
        assert r["finish"] == base["finish"]
        assert r["now"] == base["now"]
    # Every kv store alive at program end must decode to the oracle's
    # flat model dict, bucket geometry and all.
    oracle = run_oracle(program)
    for key in base["kvinfo"]:
        obj = int(key.split(":")[0])
        assert skeleton_kv_dict(base["mem"][key]) == oracle.final[obj]


@pytest.mark.shard
def test_corpus_has_live_kv_state_to_check():
    """Guard the guard: at least one corpus program must end with a
    live kv store, or the oracle-agreement loop above is vacuous."""
    total = 0
    for path in CORPUS:
        out = run_corpus_sharded(_load(path), 1)
        total += len(out["kvinfo"])
    assert total > 0
