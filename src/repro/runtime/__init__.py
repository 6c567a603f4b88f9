"""The IBM XLUPC runtime model (sections 2–3).

Public surface:

* :class:`~repro.runtime.runtime.RuntimeConfig` /
  :class:`~repro.runtime.runtime.Runtime` — build and run UPC programs;
* :class:`~repro.runtime.thread.UPCThread` — the API kernels program
  against (``yield from th.get(...)`` etc.);
* shared objects (:class:`SharedArray`, :class:`SharedScalar`,
  :class:`SharedLock`), handles, layouts and pointers-to-shared;
* :class:`~repro.runtime.svd.SVDReplica` — the Shared Variable
  Directory.
"""

from repro.runtime.errors import (
    AffinityError,
    LayoutError,
    SVDError,
    UPCRuntimeError,
)
from repro.runtime.handle import ALL_PARTITION, SVDHandle
from repro.runtime.layout import BlockCyclicLayout
from repro.runtime.metrics import RunResult, RuntimeMetrics
from repro.runtime.pointer import PointerToShared
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.shared_array import SharedArray
from repro.runtime.shared_matrix import SharedMatrix
from repro.runtime.shared_lock import SharedLock
from repro.runtime.shared_scalar import SharedScalar
from repro.runtime.svd import (
    ControlBlock,
    HandleAllocator,
    SVDReplica,
)
from repro.runtime.thread import UPCThread

__all__ = [
    "Runtime",
    "RuntimeConfig",
    "UPCThread",
    "SharedArray",
    "SharedMatrix",
    "SharedScalar",
    "SharedLock",
    "SVDHandle",
    "ALL_PARTITION",
    "SVDReplica",
    "ControlBlock",
    "HandleAllocator",
    "BlockCyclicLayout",
    "PointerToShared",
    "RunResult",
    "RuntimeMetrics",
    "UPCRuntimeError",
    "SVDError",
    "LayoutError",
    "AffinityError",
]
