"""Service-level differential suite.

Generated kv-traffic programs (store churn + put/get/delete/multi-get
interleaved with alloc/free churn) replayed across the config matrix
against the flat-dict oracle — healthy and under chaos fault plans —
plus the guard-the-guards mutation check: a store that corrupts values
must be *caught* as a divergence and *shrunk* to a runnable pytest
reproducer containing the kv ops.
"""

import pytest

from repro.faults import resolve_profile
from repro.service.kvstore import KVStore
from repro.testing import (
    QUICK_MATRIX,
    config_by_name,
    generate_program,
    run_differential,
    shrink,
    validate,
)


# ---------------------------------------------------------------------------
# Fixed-seed kv programs across the quick matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fixed_seed_kv_programs_quick_matrix(seed):
    program = generate_program(seed, n_ops=110, kv=True)
    validate(program)
    assert any(op.kind.startswith("kv") for op in program.iter_ops())
    divs = run_differential(program, configs=list(QUICK_MATRIX))
    assert not divs, "\n\n".join(d.describe() for d in divs)


def test_generated_corpus_exercises_both_access_paths():
    accesses = set()
    for seed in range(8):
        program = generate_program(seed, n_ops=110, kv=True)
        accesses |= {op.args["access"] for op in program.iter_ops()
                     if op.kind == "kv_create"}
    assert accesses == {"onesided", "rpc"}


def test_service_generator_is_deterministic_per_seed():
    a = generate_program(5, n_ops=90, kv=True)
    b = generate_program(5, n_ops=90, kv=True)
    assert a.dumps() == b.dumps()


# ---------------------------------------------------------------------------
# Chaos: the differential property must hold under faults too
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3])
def test_kv_programs_hold_under_chaos(seed):
    plan = resolve_profile("chaos", 1000003 * seed + 17)
    program = generate_program(seed, n_ops=100, kv=True)
    divs = run_differential(
        program,
        configs=[config_by_name("gm-base"), config_by_name("gm-nocache")],
        fault_plan=plan)
    assert not divs, "\n\n".join(d.describe() for d in divs)


# ---------------------------------------------------------------------------
# Mutation: a corrupted store must be caught and shrunk (satellite 1)
# ---------------------------------------------------------------------------

def test_mutation_corrupted_kv_put_is_caught_and_shrunk(monkeypatch):
    """Flip one bit in every stored value (both access paths route
    through :meth:`KVStore.put`); the differential runner must flag
    it, and the shrinker must reduce the reproducer to a handful of
    ops whose pytest snippet still contains the kv traffic."""
    real_put = KVStore.put

    def corrupting_put(self, th, key, value):
        return real_put(self, th, key, int(value) ^ 1)

    monkeypatch.setattr(KVStore, "put", corrupting_put)
    points = [config_by_name("gm-base")]
    program = None
    for seed in range(6):
        cand = generate_program(seed, n_ops=110, kv=True)
        if run_differential(cand, configs=points, stop_on_first=True):
            program = cand
            break
    assert program is not None, "corrupted kv put survived 6 seeds"

    def still_fails(candidate):
        return bool(run_differential(candidate, configs=points,
                                     stop_on_first=True))

    small = shrink(program, still_fails)
    assert small.n_ops <= 12, (
        f"shrinker left {small.n_ops} ops:\n{small.dumps(indent=2)}")
    assert still_fails(small)
    assert any(op.kind == "kv_put" for op in small.iter_ops())
    snippet = small.to_pytest_snippet(config_name="gm-base")
    assert "run_differential" in snippet and "kv_put" in snippet


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def test_cli_fuzz_kv_smoke(capsys):
    from repro.__main__ import main
    rc = main(["fuzz", "--seed", "0", "--ops", "80", "--quick", "--kv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out and "kv" in out
