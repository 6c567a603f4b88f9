"""repro — reproduction of *Scalable RDMA performance in PGAS
languages* (Farreras, Almási, Caşcaval, Cortes; IPDPS 2009).

The package rebuilds the paper's whole stack on a discrete-event
simulator:

* :mod:`repro.sim` — event-driven kernel (virtual clock in µs);
* :mod:`repro.memory` — per-node address spaces, pinning, pin-down
  caches;
* :mod:`repro.network` — Myrinet/GM and HPS/LAPI transport models
  (AM protocols, RDMA, polling vs interrupt progress);
* :mod:`repro.runtime` — the XLUPC runtime: Shared Variable Directory,
  shared objects, GET/PUT, collectives, hybrid thread mapping;
* :mod:`repro.core` — **the contribution**: the remote address cache
  and pinned address table;
* :mod:`repro.workloads` — GET/PUT microbenchmarks + the DIS
  Stressmark subset (Pointer, Update, Neighborhood, Field);
* :mod:`repro.experiments` — runners regenerating every evaluation
  figure (6, 7, 8, 9) and the section-6 overhead claim;
* :mod:`repro.obs` — the flight recorder: one event log behind the
  latency breakdown, the section-4.6 time-in-state view, the exports
  and ``python -m repro report``.

Quickstart::

    from repro import Runtime, RuntimeConfig, GM_MARENOSTRUM

    def kernel(th):
        arr = yield from th.all_alloc(4096, blocksize=64, dtype="u8")
        value = yield from th.get(arr, 1234)   # remote read
        yield from th.barrier()

    rt = Runtime(RuntimeConfig(machine=GM_MARENOSTRUM, nthreads=8))
    rt.spawn(kernel)
    result = rt.run()
    print(result.elapsed_us, result.cache_stats.hit_rate)
"""

from repro.core import (
    EvictionPolicy,
    PiggybackMode,
    PinningPolicy,
    RemoteAddressCache,
)
from repro.network import (
    GM_MARENOSTRUM,
    LAPI_POWER5,
    MACHINES,
    MachineParams,
    TransportParams,
)
from repro.runtime import (
    Runtime,
    RuntimeConfig,
    RunResult,
    SharedArray,
    SVDHandle,
    UPCThread,
)
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "Runtime",
    "RuntimeConfig",
    "RunResult",
    "UPCThread",
    "SharedArray",
    "SVDHandle",
    "Simulator",
    "GM_MARENOSTRUM",
    "LAPI_POWER5",
    "MACHINES",
    "MachineParams",
    "TransportParams",
    "RemoteAddressCache",
    "EvictionPolicy",
    "PinningPolicy",
    "PiggybackMode",
    "__version__",
]
