"""Tests for the paired-run harness and statistics."""

import math
from dataclasses import dataclass

import pytest

from repro.experiments import paired_run, repeat_ci
from repro.network import GM_MARENOSTRUM
from repro.util.stats import (
    ConfidenceInterval,
    DegenerateBaselineError,
    improvement_pct,
    mean_ci95,
)
from repro.workloads import PointerParams, run_pointer


def small_params(**kw):
    return PointerParams(machine=GM_MARENOSTRUM, nthreads=8,
                         threads_per_node=4, nelems=1024, hops=8, **kw)


def test_paired_run_checks_equivalence_and_improves():
    pair = paired_run(run_pointer, small_params(seed=3))
    assert pair.baseline.check == pair.cached.check
    assert pair.improvement_pct > 0
    assert 0 <= pair.hit_rate <= 1


def test_repeat_ci_aggregates_seeds():
    ci = repeat_ci(run_pointer, small_params(), seeds=[1, 2, 3])
    assert ci.n == 3
    assert ci.low <= ci.mean <= ci.high


def test_repeat_ci_requires_seeds():
    with pytest.raises(ValueError):
        repeat_ci(run_pointer, small_params(), seeds=[])


def test_improvement_pct_paper_formula():
    # 100 (Z - W) / Z
    assert improvement_pct(100.0, 60.0) == pytest.approx(40.0)
    assert improvement_pct(10.0, 30.0) == pytest.approx(-200.0)
    with pytest.raises(ValueError):
        improvement_pct(0.0, 1.0)


def test_mean_ci95_known_values():
    ci = mean_ci95([10.0, 12.0, 14.0])
    assert ci.mean == pytest.approx(12.0)
    assert ci.half_width == pytest.approx(1.96 * 2.0 / 3 ** 0.5, rel=1e-3)
    single = mean_ci95([5.0])
    assert single.half_width == 0.0
    with pytest.raises(ValueError):
        mean_ci95([])


def test_confidence_interval_bounds():
    ci = ConfidenceInterval(mean=10.0, half_width=2.0, n=5)
    assert ci.low == 8.0 and ci.high == 12.0


# ---------------------------------------------------------------------------
# Degenerate baselines: named error, per-seed skipping, honest rendering
# ---------------------------------------------------------------------------

def test_zero_baseline_raises_named_error_not_bare_valueerror():
    with pytest.raises(DegenerateBaselineError, match="undefined"):
        improvement_pct(0.0, 1.0)
    # Old callers that catch ValueError keep working.
    assert issubclass(DegenerateBaselineError, ValueError)


def test_confidence_interval_str_marks_degenerate_sample_counts():
    real = ConfidenceInterval(mean=16.6, half_width=1.2, n=3)
    assert "± 1.200 (n=3)" in str(real)
    # One seed has no spread to estimate — never render "± 0.00".
    single = ConfidenceInterval(mean=16.6, half_width=0.0, n=1)
    assert "(n=1, no CI)" in str(single)
    assert "±" not in str(single)
    empty = ConfidenceInterval(mean=float("nan"), half_width=0.0,
                               n=0, skipped=4)
    assert str(empty) == "no data (n=0, skipped=4)"


@dataclass(frozen=True)
class _StubParams:
    seed: int = 0
    cache_enabled: bool = False
    degenerate_seeds: tuple = ()


@dataclass(frozen=True)
class _StubResult:
    elapsed_us: float
    check: int = 42
    hit_rate: float = 0.5


def _stub_run(params: _StubParams) -> _StubResult:
    if params.seed in params.degenerate_seeds:
        return _StubResult(elapsed_us=0.0)
    # Uncached run takes 100us, cached 80us: 20% improvement.
    return _StubResult(elapsed_us=80.0 if params.cache_enabled
                       else 100.0)


def test_repeat_ci_skips_degenerate_seeds_instead_of_aborting():
    params = _StubParams(degenerate_seeds=(2,))
    ci = repeat_ci(_stub_run, params, seeds=[1, 2, 3])
    assert ci.n == 2
    assert ci.skipped == 1
    assert ci.mean == pytest.approx(20.0)


def test_repeat_ci_all_degenerate_returns_empty_interval():
    params = _StubParams(degenerate_seeds=(1, 2))
    ci = repeat_ci(_stub_run, params, seeds=[1, 2])
    assert ci.n == 0
    assert ci.skipped == 2
    assert math.isnan(ci.mean)
    assert "no data" in str(ci)
