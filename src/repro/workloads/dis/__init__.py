"""UPC port of the DIS Stressmark subset (section 4.4).

The paper's third contribution: "introduces a UPC parallel
implementation of a subset of the DIS Stressmark Suite".  Four
stressmarks, chosen because "they recreate the access patterns of
data-intensive real applications":

* **Pointer** — random pointer chasing over the whole shared array by
  every thread (unpredictable communication; cache-stressing);
* **Update** — pointer chasing with reads+updates from thread 0 only,
  everyone else idling in a barrier;
* **Neighborhood** — a 2-D stencil prototype with nearest-neighbour
  communication (tiny, stable working set: the friendly case);
* **Field** — token search over a blocked string array with overhang
  reads into the neighbouring thread's block (mostly-local, exposes
  the GM progress pathology of section 4.6).
"""

from repro.workloads.dis.common import DISBase, DISResult
from repro.workloads.dis.corner_turn import CornerTurnParams, run_corner_turn
from repro.workloads.dis.pointer import PointerParams, run_pointer
from repro.workloads.dis.update import UpdateParams, run_update
from repro.workloads.dis.neighborhood import (
    NeighborhoodParams,
    run_neighborhood,
)
from repro.workloads.dis.field import FieldParams, run_field

__all__ = [
    "DISBase",
    "DISResult",
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
]
