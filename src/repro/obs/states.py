"""Time-in-state view of a flight-recorder log (section 4.6 methodology).

    "We analyzed the behavior of this benchmark using the Paraver
    performance analysis toolkit.  The trace showed that the remote
    GET and PUT access times at the 'overhangs' were abnormally large
    when address cache was not in use."

A state interval is one completed op span of one UPC thread, so this
view is a read-only projection of :class:`~repro.obs.events.EventLog`:
``state`` is the span's name (``get:rdma``, ``put:am``, ``barrier``,
``compute``, ``lock``, ...) and the rows come out in completion order.
It answers the questions the paper asked of Paraver — where time goes
per state (:func:`render_profile`) and which operations are abnormal
outliers (:func:`find_outliers`) — and moves the rows in and out of a
``thread,state,t0,t1`` CSV that opens in any spreadsheet or pandas.
"""

from __future__ import annotations

import csv
from typing import Iterable, List, NamedTuple, Optional, TextIO, Union

from repro.obs.events import EventLog, OP_BEGIN
from repro.obs.export import span_name
from repro.util.stats import RunningStats

_HEADER = ["thread", "state", "t0", "t1"]


class StateRecord(NamedTuple):
    """One interval of one UPC thread spent in one state."""

    thread: int
    state: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def state_records(log: EventLog) -> List[StateRecord]:
    """Every completed op span of ``log`` as a state interval."""
    return [StateRecord(b.thread, span_name(b, e), b.t, e.t)
            for b, e in log.op_spans().values()]


def find_outliers(records: Iterable[StateRecord], state: str,
                  factor: float = 4.0,
                  p: Optional[float] = None) -> List[StateRecord]:
    """Records of ``state`` lasting more than ``factor`` x the mean —
    the "abnormally large ... access times" detector of section 4.6.

    With ``p`` set (e.g. ``p=99``) the threshold is the ``p``-th
    percentile of the state's durations instead.  A mean-relative
    factor drowns in bimodal traces (cache hits pull the mean far
    below the miss mode, flagging every miss); the percentile form
    flags only the true tail.
    """
    records = [r for r in records if r.state == state]
    if not records:
        return []
    if p is not None:
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        durations = sorted(r.duration for r in records)
        rank = (p / 100.0) * (len(durations) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(durations) - 1)
        threshold = (durations[lo]
                     + (durations[hi] - durations[lo]) * (rank - lo))
    else:
        mean = sum(r.duration for r in records) / len(records)
        threshold = factor * mean
    return [r for r in records if r.duration > threshold]


def render_profile(log: EventLog) -> str:
    """Human-readable time-by-state table of a log.

    A log truncated at its ``max_events`` cap says so under the table
    — dropped events and ops whose ``op_begin`` never met an
    ``op_end`` are counted, never silently read as a complete profile.
    """
    by_state: dict = {}
    records = state_records(log)
    for rec in records:
        by_state.setdefault(rec.state, RunningStats()).add(rec.duration)
    total = sum(s.total for s in by_state.values())
    lines = [f"{'state':>12} {'count':>7} {'total_us':>12} "
             f"{'mean_us':>9} {'max_us':>9} {'share':>6}"]
    for state in sorted(by_state):
        s = by_state[state]
        lines.append(
            f"{state:>12} {s.n:>7} {s.total:>12.1f} {s.mean:>9.2f} "
            f"{s.max:>9.2f} {s.total / total if total else 0.0:>6.1%}")
    unclosed = len(log.by_kind(OP_BEGIN)) - len(records)
    if log.dropped_events or unclosed:
        lines.append(f"(incomplete: {log.dropped_events} event(s) "
                     f"dropped at the recorder's max_events cap, "
                     f"{unclosed} op(s) begun but never ended; totals "
                     "undercount the run's tail)")
    return "\n".join(lines)


def dump_csv(records: Iterable[StateRecord],
             dest: Union[str, TextIO]) -> int:
    """Write one row per record to ``dest`` (path or file object);
    returns the number of records written.  ``repr`` round-trips the
    floats exactly."""
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            return dump_csv(records, fh)
    rows = [(r.thread, r.state, repr(r.t0), repr(r.t1)) for r in records]
    writer = csv.writer(dest)
    writer.writerow(_HEADER)
    writer.writerows(rows)
    return len(rows)


def load_csv(src: Union[str, TextIO]) -> List[StateRecord]:
    """Read the records written by :func:`dump_csv`."""
    if isinstance(src, str):
        with open(src, newline="") as fh:
            return load_csv(fh)
    reader = csv.reader(src)
    header = next(reader, None)
    if header != _HEADER:
        raise ValueError(f"not a trace CSV (header {header!r})")
    records = []
    for row in reader:
        if len(row) != 4:
            raise ValueError(f"malformed trace row {row!r}")
        rec = StateRecord(int(row[0]), row[1], float(row[2]),
                          float(row[3]))
        if rec.t1 < rec.t0:
            raise ValueError(
                f"interval ends before it starts: {rec.t0} .. {rec.t1}")
        records.append(rec)
    return records
