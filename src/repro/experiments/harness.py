"""Paired-run machinery and confidence intervals.

Every number the paper reports is ``100 (Z - W) / Z`` where ``Z`` is
the regular runtime and ``W`` the address-cache runtime of the *same*
workload.  :func:`paired_run` runs both configurations on identical
inputs (same seed → identical access streams) and verifies the
functional outputs match before reporting any timing — a cached run
that computed a different answer is a bug, not a speedup.

Section 4: "We defined a confidence coefficient of 95% and ran each
experiment multiple times" — :func:`repeat_ci` does the same across
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

from repro.network.params import MachineParams
from repro.util.stats import (
    ConfidenceInterval,
    DegenerateBaselineError,
    improvement_pct,
    mean_ci95,
)
from repro.workloads.dis.common import DISResult
from repro.workloads.micro import MicroParams


@dataclass
class PairedRun:
    """Z (uncached) vs W (cached) for one workload configuration."""

    baseline: DISResult
    cached: DISResult

    @property
    def improvement_pct(self) -> float:
        return improvement_pct(self.baseline.elapsed_us,
                               self.cached.elapsed_us)

    @property
    def hit_rate(self) -> float:
        return self.cached.hit_rate


def paired_run(run_fn: Callable[..., DISResult], params) -> PairedRun:
    """Run ``params`` with the cache off and on; check equivalence."""
    baseline = run_fn(replace(params, cache_enabled=False))
    cached = run_fn(replace(params, cache_enabled=True))
    if baseline.check != cached.check:
        raise AssertionError(
            f"functional divergence between cached and uncached runs of "
            f"{type(params).__name__}: {baseline.check!r} != "
            f"{cached.check!r}")
    return PairedRun(baseline=baseline, cached=cached)


def repeat_ci(run_fn: Callable[..., DISResult], params,
              seeds: Sequence[int]) -> ConfidenceInterval:
    """Improvement % across repetitions with different seeds, as a
    95% confidence interval (normal approximation, as in the paper).

    A repetition whose baseline ran in zero time (a degenerate cell —
    e.g. a truncated sweep point where thread 0 does no measured work)
    is *skipped* rather than aborting the whole sweep, and counted in
    the interval's ``skipped`` field; if every repetition is
    degenerate the result has ``n == 0`` and a NaN mean.
    """
    if not seeds:
        raise ValueError("repeat_ci needs at least one seed")
    samples: List[float] = []
    skipped = 0
    for seed in seeds:
        pair = paired_run(run_fn, replace(params, seed=seed))
        try:
            samples.append(pair.improvement_pct)
        except DegenerateBaselineError:
            skipped += 1
    if not samples:
        return ConfidenceInterval(mean=float("nan"), half_width=0.0,
                                  n=0, skipped=skipped)
    ci = mean_ci95(samples)
    return replace(ci, skipped=skipped) if skipped else ci


def micro_pair(fn: Callable[[MicroParams], float],
               machine: MachineParams, size: int,
               reps: int) -> Tuple[float, float]:
    """``(Z, W)`` of one microbenchmark point: ``fn`` (µs) with the
    address cache off, then on."""
    z, w = (fn(MicroParams(machine=machine, msg_bytes=size,
                           cache_enabled=cache, reps=reps))
            for cache in (False, True))
    return z, w
