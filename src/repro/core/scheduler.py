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
from typing import Dict, Optional, Protocol, Tuple

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


# Equations (1)–(2) are evaluated here and nowhere else in ``src/``:
# ``Ua(i) = throughput_term + age_term``, each the floating-point operations
# of the written formula in its order, so every score — a memoised part or a
# fresh one — is the same bits.


#: A scheduler's memo of throughput terms is cleared when it holds more
#: sizes than this.  A ``sched_deep`` pass meets ≈ 2,300 distinct sizes, but
#: the sizes one decision reads recur within a few decisions, so a cleared
#: memo refills at once (≈ 1.4 instead of ≈ 1.1 computed terms a decision);
#: unbounded, the memo cost that pass ≈ 1 MiB of peak RSS.
MAX_MEMOISED_TERMS = 1_024


def throughput_term(config: SchedulerConfig, queue_objects: int, io_ms: float) -> float:
    """The contention half of ``Ua``: ``(1 − α)·Ut(i)``, times ``Tm`` when normalised.

    ``Ut`` is Equation (1); *io_ms* is its ``Tb·φ(i)`` — ``Tb`` for a cold
    bucket, 0 for a resident one.  The raw metric multiplies by 1.0, which
    is exact.
    """
    tm = config.cost.tm_ms
    ut = queue_objects / (io_ms + tm * queue_objects) if queue_objects else 0.0
    return (1.0 - config.alpha) * ut * (tm if config.normalize_metric else 1.0)


def age_unit_ms(config: SchedulerConfig, max_age_ms: float) -> float:
    """What :func:`age_term` divides an age by.

    Normalised, the age of the oldest pending request (*max_age_ms*); raw,
    or when every age is 0, 1.0 — dividing by it is exact.
    """
    return max_age_ms if config.normalize_metric and max_age_ms > 0 else 1.0


def age_term(alpha: float, unit_ms: float, now_ms: float, oldest_ms: float) -> float:
    """The age half of ``Ua``: ``α·A(i)`` of Equation (2), ``A`` in *unit_ms*.

    ``A(i)`` is the age of the queue's oldest request, never below 0 (a
    request enqueued after *now_ms* has not aged yet).
    """
    age = now_ms - oldest_ms
    if age < 0.0:
        age = 0.0
    return alpha * (age / unit_ms)


class LifeRaftScheduler:
    """Selects the pending bucket with the highest aged workload throughput."""

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()
        self.decisions = 0
        #: :func:`throughput_term` by queue size: a resident queue's under its
        #: size, a cold one's under the negated size (the index's key).  Sizes
        #: are positive, so the two never collide.
        self._terms: Dict[int, float] = {}

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

    def __getstate__(self) -> dict:
        # The memo of terms is derived from the config alone: a pickled
        # scheduler is its config and decision count, as a fresh one's is.
        state = self.__dict__.copy()
        del state["_terms"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._terms = {}

    def next_work(
        self, manager: WorkloadManager, cache: BucketCacheManager, now_ms: float
    ) -> Optional[WorkItem]:
        """Pick the pending bucket with the highest ``Ua``.

        Ties are broken toward the lower bucket index so behaviour is
        deterministic (and therefore reproducible across runs).

        The choice is the one a scan of every pending bucket would make, but
        only a few are scored.  ``Ua`` never decreases when a cold queue
        grows or its oldest request ages (each floating-point operation in
        it is monotone; for the queue size see the README's ``core/``
        section), and the manager keeps the pending buckets sorted both
        ways.  Resident queues (at most the cache capacity) are scored
        first.  Then the two orders are read in step, every bucket scored as
        if cold — the next-largest queue, and the next-oldest age group, down
        the group only while its scores still tie the best — until
        ``Ua(next size, next age)``, which no bucket unseen in both orders
        can exceed, falls below the best.  (A resident bucket met again
        scores no higher cold than it already did, so it changes nothing.)

        A score is :func:`throughput_term` + :func:`age_term`.  The throughput
        term of a queue size, cold or resident, is computed once per
        scheduler (the memo is never pickled, and is cleared past
        :data:`MAX_MEMOISED_TERMS` sizes), and the age term once per age
        group, so the walk down a group is a dictionary read and one addition
        per bucket — the same floating-point operations as scoring each bucket
        afresh.
        """
        if not manager.has_pending_work():
            return None
        self.decisions += 1
        cfg = self.config
        alpha = cfg.alpha
        unit_ms = age_unit_ms(cfg, manager.max_pending_age_ms(now_ms))
        terms = self._terms
        if len(terms) > MAX_MEMOISED_TERMS:
            terms.clear()
        best_score = float("-inf")
        best_bucket = -1
        for bucket, queue_objects, oldest_ms in manager.pending_among(cache.resident_buckets()):
            warm = terms.get(queue_objects)
            if warm is None:
                warm = terms[queue_objects] = throughput_term(cfg, queue_objects, 0.0)
            score = warm + age_term(alpha, unit_ms, now_ms, oldest_ms)
            if score > best_score or (score == best_score and bucket < best_bucket):
                best_score = score
                best_bucket = bucket
        tb = cfg.cost.tb_ms
        # There are no more age groups than pending buckets, so the size
        # order cannot run out before the groups do.
        by_size = iter(manager.size_order())
        for group_ms, group in manager.age_groups():
            group_age = age_term(alpha, unit_ms, now_ms, group_ms)
            negated_size, bucket, oldest_ms = next(by_size)
            cold = terms.get(negated_size)
            if cold is None:
                cold = terms[negated_size] = throughput_term(cfg, -negated_size, tb)
            if cold + group_age < best_score:
                break
            score = cold + age_term(alpha, unit_ms, now_ms, oldest_ms)
            if score > best_score or (score == best_score and bucket < best_bucket):
                best_score = score
                best_bucket = bucket
            for negated_size, bucket, _ in group:
                cold = terms.get(negated_size)
                if cold is None:
                    cold = terms[negated_size] = throughput_term(cfg, -negated_size, tb)
                score = cold + group_age
                if score < best_score:
                    break
                if score > best_score or bucket < best_bucket:
                    best_score = score
                    best_bucket = bucket
        return WorkItem(bucket_index=best_bucket)
