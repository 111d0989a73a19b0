"""Reproduction of LifeRaft (CIDR 2009).

LifeRaft is a data-driven, batch query scheduler for data-intensive
scientific workloads.  Rather than evaluating queries in arrival order, it
partitions the fact table into equal-sized buckets along the HTM
space-filling curve, groups the data requirements of concurrent queries by
bucket, and services the bucket with the highest *aged workload throughput*
next so that one sequential read satisfies many queries at once.

The package is organised as a set of substrates plus the core scheduler:

``repro.htm``
    Spherical geometry and the Hierarchical Triangular Mesh used to
    linearise the sky into a space-filling curve.
``repro.storage``
    Disk cost model, LRU cache, bucket partitioner, the count-only
    in-memory store and the ``.lrbs`` column store, spatial index.
``repro.catalog``
    Synthetic astronomical catalogs.
``repro.core``
    The LifeRaft scheduler itself: pre-processor, workload manager,
    scheduling metrics, hybrid join evaluator, baselines and the engine.
``repro.sim``
    Discrete-event simulation used to drive the evaluation.
``repro.workload``
    Cross-match query model, trace generators and arrival processes.
``repro.experiments``
    One module per figure/table of the paper's evaluation.
"""

from repro.core.baselines import (
    IndexOnlyScheduler,
    LeastSharableFirstScheduler,
    NoShareScheduler,
    RoundRobinScheduler,
)
from repro.core.engine import EngineConfig, LifeRaftEngine
from repro.core.metrics import CostModel
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig
from repro.reliability.config import ReliabilityConfig
from repro.service.frontend import ServiceConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, SimulationResult, Simulator
from repro.storage.bucket_store import BucketStore
from repro.storage.disk_store import DiskBucketStore, open_disk_store
from repro.workload.generator import TraceConfig, TraceGenerator
from repro.workload.query import CrossMatchObject, CrossMatchQuery

__version__ = "1.0.0"

#: The supported public API.  ``Simulator.execute(queries, RunSpec(...))``
#: is the one entry point for running simulations; everything else here
#: is configuration, result types and the storage tiers.
__all__ = [
    # engine & scheduling
    "LifeRaftEngine",
    "EngineConfig",
    "LifeRaftScheduler",
    "SchedulerConfig",
    "CostModel",
    "NoShareScheduler",
    "RoundRobinScheduler",
    "IndexOnlyScheduler",
    "LeastSharableFirstScheduler",
    # workload model
    "CrossMatchQuery",
    "CrossMatchObject",
    "TraceConfig",
    "TraceGenerator",
    # simulation surface
    "RunSpec",
    "SimulationConfig",
    "Simulator",
    "SimulationResult",
    "ServiceConfig",
    "ReliabilityConfig",
    # storage tiers
    "BucketStore",
    "DiskBucketStore",
    "open_disk_store",
    "__version__",
]
