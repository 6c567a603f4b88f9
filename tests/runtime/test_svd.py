"""Unit tests for the Shared Variable Directory."""

import pytest

from repro.runtime import ALL_PARTITION, SVDHandle
from repro.runtime.errors import SVDError
from repro.runtime.svd import (
    ControlBlock,
    HandleAllocator,
    KIND_ARRAY,
    SVDReplica,
)


def cb(handle, nbytes=1024):
    return ControlBlock(handle=handle, kind=KIND_ARRAY, total_bytes=nbytes,
                        nelems=nbytes, elem_size=1, blocksize=64)


def test_handle_validation():
    with pytest.raises(ValueError):
        SVDHandle(partition=-2, index=0)
    with pytest.raises(ValueError):
        SVDHandle(partition=0, index=-1)
    h = SVDHandle(partition=ALL_PARTITION, index=0)
    assert h.is_all


def test_handles_are_universal_keys():
    a = SVDHandle(partition=3, index=7)
    b = SVDHandle(partition=3, index=7)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # A tuple hashed in C, by the value set iteration order (and so
    # RANDOM eviction) was built on.
    assert type(a).__hash__ is tuple.__hash__
    assert hash(a) == hash((3, 7))
    assert str(a) == "svd[3:7]" and str(SVDHandle(-1, 0)) == "svd[ALL:0]"


def test_handle_allocator_sequences_per_partition():
    alloc = HandleAllocator(nthreads=4)
    h0 = alloc.fresh(0)
    h1 = alloc.fresh(0)
    h2 = alloc.fresh(1)
    hall = alloc.fresh(ALL_PARTITION)
    assert (h0.index, h1.index, h2.index, hall.index) == (0, 1, 0, 0)
    with pytest.raises(SVDError):
        alloc.fresh(4)  # only n thread partitions + ALL


def test_replica_add_and_lookup_local():
    rep = SVDReplica(node_id=0, nthreads=4)
    h = SVDHandle(partition=0, index=0)
    rep.add(cb(h), local_base=0x1000, local_bytes=1024)
    assert h in rep
    assert rep.lookup_local(h) == 0x1000
    assert rep.lookups == 1


def test_lookup_local_fails_off_home_node():
    # Figure 2: addresses are held only where data is local.
    rep = SVDReplica(node_id=1, nthreads=4)
    h = SVDHandle(partition=0, index=0)
    rep.add(cb(h))  # no local storage on this node
    with pytest.raises(SVDError, match="home node"):
        rep.lookup_local(h)
    assert rep.control_block(h).total_bytes == 1024  # metadata fine


def test_duplicate_add_rejected():
    rep = SVDReplica(0, 4)
    h = SVDHandle(partition=2, index=0)
    rep.add(cb(h))
    with pytest.raises(SVDError, match="already present"):
        rep.add(cb(h))


def test_use_after_free_detected():
    rep = SVDReplica(0, 4)
    h = SVDHandle(partition=0, index=0)
    rep.add(cb(h), local_base=0x1000)
    rep.remove(h)
    assert h not in rep
    with pytest.raises(SVDError, match="use-after-free"):
        rep.lookup_local(h)


def test_unknown_handle_rejected():
    rep = SVDReplica(0, 4)
    with pytest.raises(SVDError, match="unknown handle"):
        rep.control_block(SVDHandle(partition=0, index=9))


def test_partition_out_of_range_rejected():
    rep = SVDReplica(0, 2)
    h = SVDHandle(partition=3, index=0)
    with pytest.raises(SVDError):
        rep.add(cb(h))


def test_notified_installs_are_counted():
    # Section 2.1 rule 1: independent allocation + notifications.
    rep = SVDReplica(0, 4)
    rep.add(cb(SVDHandle(partition=1, index=0)), notified=True)
    rep.add(cb(SVDHandle(partition=1, index=1)), notified=True)
    assert rep.notifications_received == 2


def test_control_block_validation():
    h = SVDHandle(partition=0, index=0)
    with pytest.raises(SVDError):
        ControlBlock(handle=h, kind="matrix", total_bytes=1)
    with pytest.raises(SVDError):
        ControlBlock(handle=h, kind=KIND_ARRAY, total_bytes=-1)
