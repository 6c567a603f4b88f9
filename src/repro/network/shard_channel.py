"""Inter-process transport of the sharded core's ``mp`` backend.

Only the ``mp`` backend has a transport.  ``mode="inproc"`` runs every
shard and the coordinator in one interpreter and hands reports and
plans over as Python objects; so does the lead worker for its own
shard 0.  Between the lead and each peer worker process runs one
duplex ``multiprocessing.Pipe``, wrapped in a :class:`PipeChannel`;
one more carries the lead's single result message to the parent.

A channel pickles explicitly and moves raw bytes
(``send_bytes``/``recv_bytes``).  A delivery batch is pickled once, by
the coordinator, and rides inside the plan as that ``bytes`` object
(:meth:`repro.sim.sync.GrainPlan.to_wire`), so the bytes
``channel_bytes`` counts are the bytes that cross the pipe.

Virtual-time results never depend on how a message travelled:
delivery *order* is the natural sort order of the message tuples
``(arrival, src, seq, ...)`` in the coordinator, and delivery *time*
is the message's arrival stamp.
"""

from __future__ import annotations

import pickle
from typing import Any

_PROTO = pickle.HIGHEST_PROTOCOL


class ChannelClosed(EOFError):
    """The peer went away mid-conversation."""


class PipeChannel:
    """One end of a ``multiprocessing.Pipe``, pickling explicitly."""

    def __init__(self, conn) -> None:
        self._conn = conn

    def send(self, obj: Any) -> None:
        try:
            self._conn.send_bytes(pickle.dumps(obj, _PROTO))
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise ChannelClosed(str(exc)) from exc

    def recv(self) -> Any:
        try:
            blob = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc
        return pickle.loads(blob)

    def close(self) -> None:
        self._conn.close()
