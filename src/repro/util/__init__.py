"""Shared utilities: units, statistics, RNG seeding.

These helpers are deliberately dependency-light; every layer of the
package may import them.
"""

from repro.util.units import (
    KB,
    MB,
    GB,
    USEC,
    MSEC,
    SEC,
    bytes_per_usec,
)
from repro.util.stats import (
    ConfidenceInterval,
    improvement_pct,
    mean_ci95,
)
from repro.util.rng import seeded_rng

__all__ = [
    "KB",
    "MB",
    "GB",
    "USEC",
    "MSEC",
    "SEC",
    "bytes_per_usec",
    "ConfidenceInterval",
    "improvement_pct",
    "mean_ci95",
    "seeded_rng",
]
