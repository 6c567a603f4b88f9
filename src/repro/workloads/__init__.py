"""Workloads: GET/PUT microbenchmarks (section 4.3) and the UPC port
of the DIS Stressmark subset (section 4.4) — Pointer, Update,
Neighborhood and Field.

Every workload is a UPC kernel written against the public
:class:`~repro.runtime.thread.UPCThread` API and parameterized by a
small dataclass, so the experiment harness can sweep scales and the
tests can run miniature instances.
"""

from repro.workloads.micro import (
    MicroParams,
    get_roundtrip_us,
    put_overhead_us,
)
from repro.workloads.dis.pointer import PointerParams, run_pointer
from repro.workloads.dis.update import UpdateParams, run_update
from repro.workloads.dis.neighborhood import (
    NeighborhoodParams,
    run_neighborhood,
)
from repro.workloads.dis.field import FieldParams, run_field
from repro.workloads.dis.corner_turn import (
    CornerTurnParams,
    run_corner_turn,
)
from repro.workloads.kv_traffic import (
    PoissonArrivals,
    TrafficParams,
    TrafficResult,
    ZipfianKeys,
    run_kv_traffic,
)

__all__ = [
    "MicroParams",
    "get_roundtrip_us",
    "put_overhead_us",
    "PointerParams",
    "run_pointer",
    "UpdateParams",
    "run_update",
    "NeighborhoodParams",
    "run_neighborhood",
    "FieldParams",
    "run_field",
    "CornerTurnParams",
    "run_corner_turn",
    "PoissonArrivals",
    "TrafficParams",
    "TrafficResult",
    "ZipfianKeys",
    "run_kv_traffic",
]
