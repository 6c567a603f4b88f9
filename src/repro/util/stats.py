"""Statistics helpers used by the experiment harness.

The paper (section 4) states: *"We defined a confidence coefficient of
95% and ran each experiment multiple times to reduce the standard
error. We assumed experiments to be independent, therefore the formulas
associated with a normal distribution apply."*  ``mean_ci95`` implements
exactly that normal-approximation interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

#: z-value for a 95% two-sided normal confidence interval.
Z_95 = 1.959963984540054


class DegenerateBaselineError(ValueError):
    """A baseline measurement was zero or negative, so the paper's
    ``100 (Z - W) / Z`` metric is undefined for that cell.

    Subclasses :class:`ValueError` for backward compatibility; sweep
    code catches this specifically so one degenerate cell is reported
    and skipped instead of aborting a whole figure or campaign.
    """


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with a symmetric 95% confidence half-width.

    ``skipped`` counts degenerate repetitions that contributed no
    sample (see :class:`DegenerateBaselineError`); ``n`` counts only
    the samples the interval is actually computed from.
    """

    mean: float
    half_width: float
    n: int
    skipped: int = 0

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        # A single sample has no spread to estimate: rendering
        # "± 0.00 (n=1)" would dress a point estimate up as a real
        # interval, so mark it (and the no-data case) explicitly.
        if self.n == 0:
            return f"no data (n=0, skipped={self.skipped})"
        if self.n == 1:
            return f"{self.mean:.3f} (n=1, no CI)"
        return f"{self.mean:.3f} ± {self.half_width:.3f} (n={self.n})"


def mean_ci95(samples: Sequence[float]) -> ConfidenceInterval:
    """Mean and 95% CI of ``samples`` under the normal approximation.

    A single sample yields a zero-width interval (the paper reruns each
    experiment; degenerate inputs still need a defined answer for tests).
    """
    if not samples:
        raise ValueError("mean_ci95 requires at least one sample")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, n=1)
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    half = Z_95 * math.sqrt(var / n)
    return ConfidenceInterval(mean=mean, half_width=half, n=n)


def improvement_pct(baseline: float, optimized: float) -> float:
    """The paper's improvement metric ``100 * (Z - W) / Z``.

    ``Z`` is the regular (baseline) time and ``W`` the time with the
    address cache.  Positive means the cache helped; the LAPI PUT panel
    of Figure 6 goes as low as -200%.
    """
    if baseline <= 0:
        raise DegenerateBaselineError(
            f"baseline must be positive, got {baseline!r} — the "
            f"improvement metric 100*(Z-W)/Z is undefined for this cell")
    return 100.0 * (baseline - optimized) / baseline


class RunningStats:
    """Online mean/variance/min/max accumulator (Welford's algorithm).

    Used for per-operation latency statistics inside the runtime where
    storing every sample would be wasteful at scale.
    """

    __slots__ = ("n", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator into this one (parallel merge)."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / n
        self._mean = (self._mean * self.n + other._mean * other.n) / n
        self.n = n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunningStats(n={self.n}, mean={self.mean:.3f}, "
            f"min={self.min:.3f}, max={self.max:.3f})"
        )
