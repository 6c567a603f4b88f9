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
from typing import Sequence

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
