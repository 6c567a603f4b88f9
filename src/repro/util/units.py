"""Unit constants and formatting helpers.

The simulator's clock is a float measured in **microseconds** and all
sizes are **bytes**; these constants keep parameter tables readable.
"""

from __future__ import annotations

#: Bytes in a kilobyte / megabyte / gigabyte (binary, as the paper uses
#: "KByte" = 1024 bytes for message sizes).
KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB

#: Time units expressed in simulator ticks (microseconds).
USEC: float = 1.0
MSEC: float = 1_000.0
SEC: float = 1_000_000.0


def bytes_per_usec(megabytes_per_second: float) -> float:
    """Convert a bandwidth in MB/s to bytes per microsecond.

    Useful when writing parameter tables in the units hardware specs use::

        gap = 1.0 / bytes_per_usec(250.0)   # Myrinet ~250 MB/s
    """
    return megabytes_per_second * MB / SEC
