"""Core LifeRaft: the paper's primary contribution.

This package implements the query-processing pipeline of Figure 3 of the
paper:

* the **Query Pre-Processor** (:mod:`repro.core.preprocessor`) splits each
  incoming cross-match query into per-bucket sub-queries;
* the **Workload Manager** (:mod:`repro.core.workload_manager`) keeps one
  workload queue per bucket, tracks the age of the oldest request in each
  queue and the mapping from pending queries to queues;
* the **cost model** (:mod:`repro.core.metrics`) holds the ``Tb`` / ``Tm``
  constants of the workload throughput ``Ut`` and the aged workload
  throughput ``Ua``;
* the **LifeRaft scheduler** (:mod:`repro.core.scheduler`) evaluates ``Ua``
  and picks the next bucket to service; :mod:`repro.core.baselines`
  provides the comparison policies of the evaluation (NoShare, RR,
  IndexOnly, least-sharable-first);
* the **Bucket Cache** (:mod:`repro.core.bucket_cache`) keeps recently read
  buckets in memory with an LRU policy;
* the **Join Evaluator** (:mod:`repro.core.join_evaluator`) applies the
  hybrid join strategy (indexed join vs. sequential scan) and performs the
  plane-sweep spatial merge join;
* the **adaptive controller** (:mod:`repro.core.adaptive`) tunes the age
  bias α from trade-off curves and a tolerance threshold;
* the **engine** (:mod:`repro.core.engine`) wires everything together.
"""

from repro.core.metrics import CostModel
from repro.core.workload_manager import WorkloadEntry, WorkloadQueue, WorkloadManager
from repro.core.preprocessor import QueryPreProcessor
from repro.core.bucket_cache import BucketCacheManager
from repro.core.join_evaluator import HybridJoinEvaluator, JoinStrategy, JoinResult
from repro.core.scheduler import LifeRaftScheduler, SchedulerConfig, WorkItem
from repro.core.baselines import (
    NoShareScheduler,
    RoundRobinScheduler,
    IndexOnlyScheduler,
    LeastSharableFirstScheduler,
)
from repro.core.adaptive import TradeoffPoint, TradeoffCurve, AlphaController, SaturationEstimator
from repro.core.engine import LifeRaftEngine, EngineConfig

__all__ = [
    "CostModel",
    "WorkloadEntry",
    "WorkloadQueue",
    "WorkloadManager",
    "QueryPreProcessor",
    "BucketCacheManager",
    "HybridJoinEvaluator",
    "JoinStrategy",
    "JoinResult",
    "LifeRaftScheduler",
    "SchedulerConfig",
    "WorkItem",
    "NoShareScheduler",
    "RoundRobinScheduler",
    "IndexOnlyScheduler",
    "LeastSharableFirstScheduler",
    "TradeoffPoint",
    "TradeoffCurve",
    "AlphaController",
    "SaturationEstimator",
    "LifeRaftEngine",
    "EngineConfig",
]
