"""Model-based differential testing for the simulated XLUPC runtime.

The paper's central claim is that the remote address cache + RDMA fast
path is *semantically invisible*: every GET/PUT returns exactly what
the slow SVD/AM path would have returned, under any transport,
progress engine, eviction policy, and bulk-engine setting.  This
package searches that space mechanically:

* :mod:`~repro.testing.program` — race-free random UPC programs as
  data (JSON-serializable, validated);
* :mod:`~repro.testing.generator` — the seeded op-sequence generator;
* :mod:`~repro.testing.oracle` — a flat-memory reference executor
  (no SVD, no cache, no network) producing ground truth;
* :mod:`~repro.testing.runner` — the differential runner sweeping the
  config matrix, checking oracle equality plus runtime invariants;
* :mod:`~repro.testing.shrink` — greedy minimization of failures to
  pytest-snippet reproducers.

Entry points: ``python -m repro fuzz --seed N --ops M`` and the
fixed-seed corpus in ``tests/fuzz/``.
"""

from repro.testing.generator import (
    ProgramGenerator,
    generate_program,
)
from repro.testing.oracle import (
    FlatOracle,
    OracleResult,
    canonical,
    run_oracle,
    values_equal,
)
from repro.testing.program import (
    Op,
    Phase,
    Program,
    ProgramError,
    live_objects_at_end,
    validate,
)
from repro.testing.runner import (
    FULL_MATRIX,
    MATRICES,
    QUICK_MATRIX,
    ConfigPoint,
    Divergence,
    FuzzReport,
    check_invariants,
    config_by_name,
    fuzz,
    record_flight,
    run_config,
    run_differential,
)
from repro.testing.shrink import shrink

__all__ = [
    "ConfigPoint",
    "Divergence",
    "FlatOracle",
    "FULL_MATRIX",
    "FuzzReport",
    "MATRICES",
    "Op",
    "OracleResult",
    "Phase",
    "Program",
    "ProgramError",
    "ProgramGenerator",
    "QUICK_MATRIX",
    "canonical",
    "check_invariants",
    "config_by_name",
    "fuzz",
    "generate_program",
    "live_objects_at_end",
    "record_flight",
    "run_config",
    "run_differential",
    "run_oracle",
    "shrink",
    "validate",
    "values_equal",
]
