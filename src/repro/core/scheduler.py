"""The LifeRaft scheduler: data-driven bucket selection with aging.

Given the Workload Manager's queues and the Bucket Cache's residency
information, the scheduler repeatedly answers one question: *which bucket
should be serviced next, and for whom?*  LifeRaft's answer (§3.2–3.3) is
the bucket with the highest **aged workload throughput**

    ``Ua(i) = Ut(i)·(1 − α) + A(i)·α``

— a greedy, most-contentious-data-first policy tempered by the age of the
oldest pending request so that no bucket starves indefinitely.  α = 0 is
the pure throughput-greedy scheduler, α = 1 processes requests purely in
arrival order; both extremes still share I/O because every service drains
the *entire* workload queue of the chosen bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Tuple

from repro.core.bucket_cache import BucketCacheManager
from repro.core.join_evaluator import JoinStrategy
from repro.core.metrics import CostModel
from repro.core.workload_manager import WorkloadManager


@dataclass(frozen=True)
class WorkItem:
    """One unit of work handed from a scheduler to the engine.

    Attributes
    ----------
    bucket_index:
        The bucket to service.
    query_ids:
        Restrict the service to these queries' entries; ``None`` drains the
        whole workload queue (the normal, shared-I/O case).
    share_io:
        Whether the bucket cache may be used.  The NoShare baseline sets
        this to ``False`` to model fully independent, per-query I/O.
    force_strategy:
        Override for the hybrid join choice (baselines only).
    """

    bucket_index: int
    query_ids: Optional[Tuple[int, ...]] = None
    share_io: bool = True
    force_strategy: Optional[JoinStrategy] = None


class SchedulingPolicy(Protocol):
    """Interface every scheduler (LifeRaft and the baselines) implements."""

    name: str

    def next_work(
        self, manager: WorkloadManager, cache: BucketCacheManager, now_ms: float
    ) -> Optional[WorkItem]:
        """Return the next work item, or ``None`` when there is nothing to do."""
        ...


@dataclass(frozen=True)
class SchedulerConfig:
    """Configuration of the LifeRaft scheduler.

    Attributes
    ----------
    alpha:
        The age bias of Equation (2); 0 = most contentious data first,
        1 = arrival order.
    cost:
        Cost model supplying ``Tb`` and ``Tm`` for the throughput term.
    normalize_metric:
        Combine the contention and age terms on a common ``[0, 1]`` scale
        (see :mod:`repro.core.metrics`); the raw combination is available
        for the ablation study.
    """

    alpha: float = 0.25
    cost: CostModel = field(default_factory=CostModel.paper_defaults)
    normalize_metric: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be within [0, 1]")


class LifeRaftScheduler:
    """Selects the pending bucket with the highest aged workload throughput."""

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()
        self.decisions = 0

    @property
    def name(self) -> str:
        """Human-readable policy name used in reports."""
        return f"liferaft(alpha={self.config.alpha:g})"

    def clone(self) -> "LifeRaftScheduler":
        """A fresh scheduler with the same configuration and no history.

        Parallel shards each need their own scheduler instance (decision
        counters and the adaptive controller's alpha are per-lane state);
        cloning a prototype is how the worker pool builds them.
        """
        return LifeRaftScheduler(self.config)

    @property
    def alpha(self) -> float:
        """Current age bias."""
        return self.config.alpha

    def _ua(self, now_ms: float, max_age_ms: float) -> Callable[[int, float, float], float]:
        """Equations (1)–(2) for one instant: ``ua(queue size, oldest enqueue ms, io ms)``.

        The only place the metric is computed: :meth:`score` and every
        comparison in :meth:`next_work` (candidates *and* pruning bounds)
        call the returned function, so they agree bit for bit.  *io ms* is
        ``Tb`` for a cold bucket and 0 for a cache-resident one (the φ(i) of
        Equation 1).
        """
        cfg = self.config
        tm = cfg.cost.tm_ms
        alpha = cfg.alpha
        one_minus_alpha = 1.0 - alpha
        normalize = cfg.normalize_metric

        def ua(queue_objects: int, oldest_ms: float, io_ms: float) -> float:
            ut = queue_objects / (io_ms + tm * queue_objects) if queue_objects else 0.0
            age = now_ms - oldest_ms
            if age < 0.0:
                age = 0.0
            if normalize:
                age_term = (age / max_age_ms) if max_age_ms > 0 else 0.0
                return one_minus_alpha * ut * tm + alpha * age_term
            return one_minus_alpha * ut + alpha * age

        return ua

    def score(
        self,
        bucket_index: int,
        manager: WorkloadManager,
        cache: BucketCacheManager,
        now_ms: float,
        max_age_ms: Optional[float] = None,
    ) -> float:
        """The aged workload throughput ``Ua`` of one bucket right now."""
        if max_age_ms is None:
            max_age_ms = manager.max_pending_age_ms(now_ms)
        return self._ua(now_ms, max_age_ms)(
            manager.queue_size(bucket_index),
            manager.oldest_bucket_enqueue_ms(bucket_index),
            0.0 if cache.resident(bucket_index) else self.config.cost.tb_ms,
        )

    def next_work(
        self, manager: WorkloadManager, cache: BucketCacheManager, now_ms: float
    ) -> Optional[WorkItem]:
        """Pick the pending bucket with the highest ``Ua``.

        Ties are broken toward the lower bucket index so behaviour is
        deterministic (and therefore reproducible across runs).

        The choice is the one a scan of every pending bucket would make, but
        only a few are scored.  ``ua`` never decreases when a cold queue
        grows or its oldest request ages (each floating-point operation in
        it is monotone; for the queue size see the README's ``core/``
        section), and the manager keeps the pending buckets sorted both
        ways.  Resident queues (at most the cache capacity) are scored
        first.  Then the two orders are read in step, every bucket scored as
        if cold — the next-largest queue, and the next-oldest age group, down
        the group only while its scores still tie the best — until
        ``ua(next size, next age)``, which no bucket unseen in both orders
        can exceed, falls below the best.  (A resident bucket met again
        scores no higher cold than it already did, so it changes nothing.)
        """
        if not manager.has_pending_work():
            return None
        self.decisions += 1
        ua = self._ua(now_ms, manager.max_pending_age_ms(now_ms))
        tb = self.config.cost.tb_ms
        best_score = float("-inf")
        best_bucket = -1
        for bucket, queue_objects, oldest_ms in manager.pending_among(cache.resident_buckets()):
            score = ua(queue_objects, oldest_ms, 0.0)
            if score > best_score or (score == best_score and bucket < best_bucket):
                best_score = score
                best_bucket = bucket
        # There are no more age groups than pending buckets, so the size
        # order cannot run out before the groups do.
        by_size = iter(manager.size_order())
        for group_ms, group in manager.age_groups():
            negated_size, bucket, oldest_ms = next(by_size)
            if ua(-negated_size, group_ms, tb) < best_score:
                break
            score = ua(-negated_size, oldest_ms, tb)
            if score > best_score or (score == best_score and bucket < best_bucket):
                best_score = score
                best_bucket = bucket
            for negated_size, bucket, _ in group:
                score = ua(-negated_size, group_ms, tb)
                if score < best_score:
                    break
                if score > best_score or bucket < best_bucket:
                    best_score = score
                    best_bucket = bucket
        return WorkItem(bucket_index=best_bucket)
