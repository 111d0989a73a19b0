"""Workload substrate: cross-match queries, traces and arrival processes.

The paper evaluates LifeRaft with a 2,000-query trace of long-running
cross-match queries taken from the SkyQuery web log.  That trace is not
public, so this package generates synthetic traces whose published
statistics are reproduced instead:

* the top ten buckets are reused heavily and touched by ~61 % of queries
  (Figure 5),
* roughly 2 % of the buckets carry ~50 % of the total workload while a long
  tail of buckets sees little work (Figure 6), and
* queries that overlap in data access arrive close together in time, which
  is what makes a small bucket cache effective.

Modules
-------
``query``       the cross-match query/object model shared by all components
``generator``   the synthetic trace generator (skew + temporal locality)
``arrival``     arrival processes used to impose a saturation level
``stats``       trace statistics (drives Figures 5 and 6)
``replay``      replay helpers (``replay_recorded`` re-runs ``.lrtr`` traces)
``trace_io``    the versioned, CRC-checked ``.lrtr`` recorded-trace codec
``scenarios``   named, seeded adversarial scenario builders
"""

from repro.workload.query import CrossMatchObject, CrossMatchQuery, QueryStatus
from repro.workload.generator import TraceConfig, TraceGenerator, QueryTrace
from repro.workload.arrival import (
    PoissonArrivalProcess,
    BurstyArrivalProcess,
    apply_arrival_times,
)
from repro.workload.stats import TraceStatistics
from repro.workload.trace_io import (
    TRACE_SUFFIX,
    RecordedTrace,
    TraceFormatError,
    read_trace,
    run_digest,
    write_trace,
)
from repro.workload.scenarios import (
    SCENARIOS,
    DiurnalFlashCrowdProcess,
    Scenario,
    build_scenario,
)

__all__ = [
    "CrossMatchObject",
    "CrossMatchQuery",
    "QueryStatus",
    "TraceConfig",
    "TraceGenerator",
    "QueryTrace",
    "PoissonArrivalProcess",
    "BurstyArrivalProcess",
    "apply_arrival_times",
    "TraceStatistics",
    "TRACE_SUFFIX",
    "RecordedTrace",
    "TraceFormatError",
    "read_trace",
    "run_digest",
    "write_trace",
    "SCENARIOS",
    "DiurnalFlashCrowdProcess",
    "Scenario",
    "build_scenario",
]
