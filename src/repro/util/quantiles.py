"""Latency percentiles: exact order statistics over a typed buffer.

Remote-operation latencies arrive at 10^5+ samples per run, one per
op, so the per-sample cost is what matters: ``add`` is one append to
an ``array('d')`` (8 bytes a sample — a Python ``list`` of floats
costs four times that), and the percentiles are computed only when
somebody reads them, with one ``numpy.partition`` over the buffer.
The answers are real observations, never interpolated — what the
tail-latency views of the Field pathology need (the median-vs-max
contrast of §4.6's trace).
"""

from __future__ import annotations

import math
from array import array

import numpy as np


class LatencyDigest:
    """The usual latency percentiles of a stream of samples.

    The quantile rule is **ceil-rank**: ``q`` of ``n`` samples is
    ``sorted(samples)[ceil(q * (n - 1))]``.  Rounding to nearest would
    send the p50 of two samples to the *lower* one and the p95 of four
    to the third — the upper tail must never round down.  An empty
    digest reads 0.0.
    """

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples = array("d")

    def add(self, x: float) -> None:
        self._samples.append(x)

    @property
    def count(self) -> int:
        return len(self._samples)

    def _quantile(self, q: float) -> float:
        n = len(self._samples)
        if n == 0:
            return 0.0
        k = math.ceil(q * (n - 1))
        # frombuffer is a view; partition copies, so the buffer is
        # never exported while a later add() may need to grow it.
        return float(np.partition(np.frombuffer(self._samples), k)[k])

    @property
    def p50(self) -> float:
        return self._quantile(0.50)

    @property
    def p95(self) -> float:
        return self._quantile(0.95)

    @property
    def p99(self) -> float:
        return self._quantile(0.99)

    def summary(self) -> str:
        return (f"p50={self.p50:.2f} p95={self.p95:.2f} "
                f"p99={self.p99:.2f} (n={self.count})")
