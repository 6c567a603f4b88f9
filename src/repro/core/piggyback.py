"""Piggyback strategies for populating the address cache.

Section 3: "We have modified the default (non-RDMA) one-sided
messaging protocol to retrieve the base address of the remote shared
object during the transfer by piggybacking it either on the data
stream or on the ACK message."

Three modes:

``ON_DATA``
    the base address rides on the GET reply / PUT data message — no
    extra message, a few extra header bytes (the paper's default, and
    what both the LAPI and GM integrations in Figure 5 do).  Whatever
    the mode short of ``DISABLED``, an AM PUT that could use an address
    (RDMA PUTs on) gets it home on its ACK
    (:meth:`repro.runtime.ops.OpEngine._insert_on_ack`);
``EXPLICIT``
    a dedicated address-fetch round trip runs *before* the data
    transfer (a strawman for the ablation — this is what you would do
    without protocol integration, and it is strictly worse);
``DISABLED``
    no address is ever learned: every remote access stays on AM.

The mode only changes *when* the initiator learns the address and how
many extra bytes/messages the miss path pays; hits are identical.
"""

from __future__ import annotations

import enum

#: Extra bytes an ON_DATA reply carries for the base address.
PIGGYBACK_BYTES = 16


class PiggybackMode(enum.Enum):
    """How the fallback protocol carries remote base addresses."""

    ON_DATA = "on-data"
    EXPLICIT = "explicit"
    DISABLED = "disabled"

    @property
    def wants_address(self) -> bool:
        """Should the fallback protocol request the base address?"""
        return self is not PiggybackMode.DISABLED

    @property
    def needs_dedicated_fetch(self) -> bool:
        return self is PiggybackMode.EXPLICIT

    @property
    def reply_extra_bytes(self) -> int:
        """Bytes added to the data reply (ON_DATA) — EXPLICIT's fetch
        adds no reply bytes, and DISABLED carries no address."""
        return PIGGYBACK_BYTES if self is PiggybackMode.ON_DATA else 0
