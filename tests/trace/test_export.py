"""Round-trip tests for the state-interval CSV (``--format csv``)."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.states import StateRecord, dump_csv, load_csv


def dumps(records):
    buf = io.StringIO()
    dump_csv(records, buf)
    return buf.getvalue()


def loads(text):
    return load_csv(io.StringIO(text))


SAMPLE = [StateRecord(0, "compute", 0.0, 5.5),
          StateRecord(1, "get:am", 5.5, 9.25),
          StateRecord(0, "barrier", 9.25, 12.0)]


def test_roundtrip_preserves_records():
    assert loads(dumps(SAMPLE)) == SAMPLE


def test_file_roundtrip(tmp_path):
    path = str(tmp_path / "trace.csv")
    assert dump_csv(SAMPLE, path) == 3
    assert load_csv(path) == SAMPLE


def test_load_rejects_garbage():
    with pytest.raises(ValueError, match="not a trace CSV"):
        loads("a,b\n1,2\n")
    with pytest.raises(ValueError, match="malformed"):
        loads("thread,state,t0,t1\n1,compute,0\n")


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 64),
              st.sampled_from(["compute", "get:am", "get:rdma",
                               "barrier"]),
              st.floats(0, 1e6, allow_nan=False),
              st.floats(0, 1e6, allow_nan=False)),
    max_size=40))
def test_property_roundtrip_exact(records):
    recs = [StateRecord(thread, state, min(a, b), max(a, b))
            for thread, state, a, b in records]
    # repr() round-trips floats exactly.
    assert loads(dumps(recs)) == recs
