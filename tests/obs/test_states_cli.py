"""``repro trace --format csv``: the state view is a projection of the
one flight-recorder log, and reproduces what the deleted per-op
``Tracer`` hooks used to record."""

import hashlib

import pytest

from repro.__main__ import main
from repro.obs import load_jsonl
from repro.obs.states import load_csv, render_profile, state_records

#: sha256 of ``<workload>.state.csv`` as the hooked ``repro.trace``
#: ``Tracer`` wrote it at the last commit that had one (968c92b,
#: ``trace <workload> --quick --format csv --machine <machine>``).
TRACER_CSV_SHA256 = {
    ("pointer", "gm"):
        "13d261aa39d3512bbe61d348825b623bc6df2d3979a82d7174272fd1b863ea61",
    ("pointer", "lapi"):
        "e4bad60909f194b52f40eb99a8fcf2dc46a4c3da2a96b53206fc7c6a1e30c7cf",
    ("field", "gm"):
        "beb41f8e383ac3db55186d3b6c42f9be796dfd9878dd9c3d946c18012e8cdb75",
    ("field", "lapi"):
        "5ec5119c44fc63f5495e6633bbe74e5a9d3b9b0ec0a1d068ffd2af388879c2a9",
}

#: The span families the Tracer was hooked into; the derived view also
#: carries the rest (``bulk_get:bulk``, ``lock``, ...) as extra rows.
TRACER_FAMILIES = ("get", "put", "barrier", "compute")


@pytest.mark.parametrize("workload,machine", sorted(TRACER_CSV_SHA256))
def test_derived_rows_reproduce_the_tracer_csv(tmp_path, workload,
                                               machine):
    assert main(["trace", workload, "--quick", "--format", "csv",
                 "--machine", machine, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / f"{workload}.state.csv").read_bytes().split(
        b"\r\n")
    assert rows[-1] == b""
    kept = [rows[0]] + [
        r for r in rows[1:-1]
        if r.split(b",")[1].split(b":")[0].decode() in TRACER_FAMILIES]
    digest = hashlib.sha256(b"\r\n".join(kept) + b"\r\n").hexdigest()
    assert digest == TRACER_CSV_SHA256[workload, machine]


def test_trace_format_csv_writes_the_state_view(tmp_path, capsys):
    assert main(["trace", "field", "--quick", "--format", "csv",
                 "--format", "jsonl", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    records = load_csv(str(tmp_path / "field.state.csv"))
    assert f"field.state.csv ({len(records)} state intervals)" in out
    # One CSV row per completed op of the same run's event log.
    log = load_jsonl(str(tmp_path / "field.events.jsonl"))
    assert records == state_records(log)
    states = {r.state for r in records}
    assert {"compute", "barrier", "bulk_get:bulk"} <= states
    assert any(s.startswith("get:") for s in states)
    assert all(r.t1 >= r.t0 for r in records)


def test_truncated_log_is_never_read_as_a_complete_profile(tmp_path,
                                                           capsys):
    assert main(["trace", "pointer", "--quick", "--format", "jsonl",
                 "--format", "csv", "--max-events", "61",
                 "--out", str(tmp_path)]) == 0
    assert "dropped)" in capsys.readouterr().out
    log = load_jsonl(str(tmp_path / "pointer.events.jsonl"))
    assert len(log) == 61 and log.dropped_events > 0
    spans = log.op_spans()
    begins = [e for e in log if e.kind == "op_begin"]
    assert len(begins) > len(spans), "cap must cut inside an op"
    note = render_profile(log).splitlines()[-1]
    assert f"{log.dropped_events} event(s) dropped" in note
    assert f"{len(begins) - len(spans)} op(s) begun but never ended" \
        in note
    # The CSV holds only the completed ops.
    assert len(load_csv(str(tmp_path / "pointer.state.csv"))) \
        == len(spans)
