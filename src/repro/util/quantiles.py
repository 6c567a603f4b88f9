"""Latency statistics: exact order statistics over a typed buffer.

This module is the one place that turns samples into statistics.
:func:`quantile` is the rule every reader of a latency uses — the
runtime summary, ``repro report``, the latency breakdown and the
outlier detector — so two views of the same samples never disagree.

Remote-operation latencies arrive at 10^5+ samples per run, one per
op, so the per-sample cost is what matters: ``add`` is one append to
an ``array('d')`` (8 bytes a sample — a Python ``list`` of floats
costs four times that), and the statistics are computed only when
somebody reads them, the quantiles with one ``numpy.partition`` over
the buffer.  The answers are real observations, never interpolated —
what the tail-latency views of the Field pathology need (the
median-vs-max contrast of §4.6's trace).
"""

from __future__ import annotations

import math
from array import array

import numpy as np


def quantile(samples, q: float) -> float:
    """The ``q`` quantile of ``samples`` by the **ceil-rank** rule:
    ``sorted(samples)[ceil(q * (n - 1))]``, 0.0 when there are none.

    Rounding to nearest would send the p50 of two samples to the
    *lower* one and the p95 of four to the third — the upper tail must
    never round down.  This is ``numpy.quantile(samples, q,
    method="higher")``, the rule the benchmark reports with.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile out of range: {q}")
    n = len(samples)
    if n == 0:
        return 0.0
    k = math.ceil(q * (n - 1))
    # asarray of a typed buffer is a view; partition copies, so the
    # buffer is never left exported while a later add() may grow it.
    return float(np.partition(np.asarray(samples, dtype=np.float64), k)[k])


class LatencyDigest:
    """Count, mean, max and the usual percentiles of a stream of
    samples, all derived from the samples themselves (an empty digest
    reads 0.0 everywhere)."""

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples = array("d")

    def add(self, x: float) -> None:
        self._samples.append(x)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return math.fsum(self._samples)

    @property
    def mean(self) -> float:
        n = len(self._samples)
        return math.fsum(self._samples) / n if n else 0.0

    @property
    def max(self) -> float:
        return max(self._samples, default=0.0)

    @property
    def p50(self) -> float:
        return quantile(self._samples, 0.50)

    @property
    def p95(self) -> float:
        return quantile(self._samples, 0.95)

    @property
    def p99(self) -> float:
        return quantile(self._samples, 0.99)

    def summary(self) -> str:
        return (f"p50={self.p50:.2f} p95={self.p95:.2f} "
                f"p99={self.p99:.2f} (n={self.count})")
