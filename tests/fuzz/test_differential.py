"""Tier-1 entry point for the model-based differential fuzz harness.

Three layers, cheapest first:

* a fixed-seed corpus replayed across the quick config matrix — the
  deterministic regression net (`python -m repro fuzz` sweeps wider);
* a hypothesis property drawing generator inputs and replaying each
  program on two maximally-different configs;
* a mutation check: break cache invalidation on purpose and assert the
  harness both *catches* the bug (as an invariant divergence) and
  *shrinks* it to a handful of ops — guarding the guards.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.address_cache import RemoteAddressCache
from repro.testing import (
    QUICK_MATRIX,
    config_by_name,
    generate_program,
    run_differential,
    run_oracle,
    shrink,
    validate,
)

from tests.fuzz.strategies import small_programs


# ---------------------------------------------------------------------------
# Fixed-seed corpus across the quick matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fixed_seed_corpus_quick_matrix(seed):
    program = generate_program(seed, n_ops=120)
    divs = run_differential(program, configs=list(QUICK_MATRIX))
    assert not divs, "\n\n".join(d.describe() for d in divs)


def test_full_matrix_single_seed():
    # One seed through every cell, so exotic configs (interrupt
    # progress, piggyback explicit, BG/L) stay covered in tier-1.
    from repro.testing import FULL_MATRIX
    program = generate_program(7, n_ops=80)
    divs = run_differential(program, configs=list(FULL_MATRIX))
    assert not divs, "\n\n".join(d.describe() for d in divs)


def test_generator_is_deterministic_per_seed():
    a = generate_program(11, n_ops=60)
    b = generate_program(11, n_ops=60)
    assert a.dumps() == b.dumps()
    ra, rb = run_oracle(a), run_oracle(b)
    assert set(ra.returns) == set(rb.returns)


@pytest.mark.parametrize("nthreads", [0, -2])
def test_generator_rejects_fewer_than_one_thread(nthreads):
    with pytest.raises(ValueError, match="nthreads must be >= 1"):
        generate_program(0, n_ops=10, nthreads=nthreads)


# ---------------------------------------------------------------------------
# Property: any generated program agrees with the oracle
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=small_programs())
def test_property_differential_vs_oracle(program):
    validate(program)  # race-free by construction; re-check anyway
    points = [config_by_name("gm-base"), config_by_name("lapi-base")]
    divs = run_differential(program, configs=points)
    assert not divs, divs[0].describe()


# ---------------------------------------------------------------------------
# Mutation check: the harness must catch a broken runtime
# ---------------------------------------------------------------------------

def test_mutation_stale_cache_entry_is_caught_and_shrunk(monkeypatch):
    """Disable eager cache invalidation on free; the invariant audit
    must flag the stale entry, and the shrinker must reduce the
    reproducer to <= 10 ops."""
    monkeypatch.setattr(RemoteAddressCache, "invalidate_handle",
                        lambda self, handle: 0)

    points = [config_by_name("gm-base")]
    program = generate_program(0, n_ops=120)
    divs = run_differential(program, configs=points, stop_on_first=True)
    assert divs, "mutated runtime slipped past the differential check"
    assert any(d.kind == "invariant" and "stale" in d.detail
               for d in divs), divs[0].describe()

    def still_fails(candidate):
        return bool(run_differential(candidate, configs=points,
                                     stop_on_first=True))

    small = shrink(program, still_fails)
    assert small.n_ops <= 10, (
        f"shrinker left {small.n_ops} ops:\n{small.dumps(indent=2)}")
    # The minimized program must still be runnable as a reproducer.
    assert still_fails(small)
    snippet = small.to_pytest_snippet(config_name="gm-base")
    assert "run_differential" in snippet and "gm-base" in snippet


def test_mutation_corrupted_put_is_caught(monkeypatch):
    """A runtime that corrupts put payloads must diverge on returned
    values or final contents (not just invariants)."""
    from repro.runtime.ops import OpEngine

    real_put = OpEngine.put

    def corrupting_put(self, thread, array, index, values, nelems=None):
        v = np.asarray(values, dtype=array.dtype)
        if np.issubdtype(v.dtype, np.integer):
            v = v ^ np.asarray(1, dtype=v.dtype)
        else:
            v = v + 1.0
        return real_put(self, thread, array, index, v, nelems=nelems)

    monkeypatch.setattr(OpEngine, "put", corrupting_put)
    points = [config_by_name("gm-base")]
    caught = False
    for seed in range(4):
        program = generate_program(seed, n_ops=120)
        if run_differential(program, configs=points,
                            stop_on_first=True):
            caught = True
            break
    assert caught, "value-corrupting put survived 4 seeds undetected"


# ---------------------------------------------------------------------------
# Flight-recorder capture of failures
# ---------------------------------------------------------------------------

def test_record_flight_dumps_replayable_jsonl(tmp_path):
    from repro.obs import OP_END, load_jsonl
    from repro.testing import record_flight

    program = generate_program(2, n_ops=60)
    path = tmp_path / "flight" / "prog.events.jsonl"
    n = record_flight(program, config_by_name("gm-base"), str(path))
    assert n > 0 and path.exists()
    log = load_jsonl(str(path))
    assert len(log) == n
    assert log.by_kind(OP_END), "replay must record completed ops"


def test_fuzz_trace_dir_captures_failing_program(tmp_path, monkeypatch):
    """On a divergence, ``trace_dir`` gets a flight-recorder log of the
    shrunk reproducer (the CI failure artifact)."""
    from repro.runtime.ops import OpEngine
    from repro.testing import fuzz

    real_put = OpEngine.put

    def corrupting_put(self, thread, array, index, values, nelems=None):
        v = np.asarray(values, dtype=array.dtype)
        if np.issubdtype(v.dtype, np.integer):
            v = v ^ np.asarray(1, dtype=v.dtype)
        else:
            v = v + 1.0
        return real_put(self, thread, array, index, v, nelems=nelems)

    monkeypatch.setattr(OpEngine, "put", corrupting_put)
    trace_dir = tmp_path / "fuzz-traces"
    report = fuzz(range(4), n_ops=120,
                  configs=[config_by_name("gm-base")],
                  shrink_failures=False, trace_dir=str(trace_dir),
                  log=lambda *a, **k: None)
    assert not report.ok, "value-corrupting put survived 4 seeds"
    logs = list(trace_dir.glob("*.events.jsonl"))
    assert logs, "no flight-recorder artifact written on failure"


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def test_cli_fuzz_smoke(capsys):
    from repro.__main__ import main
    rc = main(["fuzz", "--seed", "0", "--ops", "60", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out and "configs" in out


def test_cli_seed_range_parsing():
    from repro.__main__ import _parse_seeds
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("0..3") == [0, 1, 2, 3]
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_seeds("5..2")


def test_cli_explicit_matrix_names(capsys):
    from repro.__main__ import main
    rc = main(["fuzz", "--seed", "1", "--ops", "40",
               "--matrix", "gm-base,gm-nocache", "--no-shrink"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 configs" in out
