"""The Join Evaluator and the hybrid join strategy.

"The Join Evaluator selects the appropriate hybrid join strategy and
requests data from the Bucket Cache … separates objects that succeed in the
spatial join by their parent queries, applies query specific predicates,
and ships the results" (§4).

Two strategies are available per bucket service (§3.4):

* **sequential scan** — read the whole bucket (through the cache, paying
  ``Tb`` on a miss) and cross-match every pending object against it in one
  plane-sweep merge pass at ``Tm`` per object;
* **indexed join** — probe the spatial index once per pending object,
  paying a few random I/Os each but never touching the bulk of the bucket.

The scan wins once the workload queue exceeds a few percent of the bucket
(the paper's Figure 2 puts the break-even near 3 % for 40 MB buckets); the
index wins for small queues, and an in-memory bucket always favours the
scan because matching from memory is far cheaper than random I/O.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.bucket_cache import BucketCacheManager
from repro.core.kernels import MatchedPair, crossmatch_block
from repro.core.metrics import CostModel
from repro.core.workload_manager import WorkloadEntry
from repro.storage.bucket_store import Bucket
from repro.storage.partitioner import BucketSpec


class JoinStrategy(enum.Enum):
    """How a bucket's workload queue is evaluated."""

    SEQUENTIAL_SCAN = "sequential_scan"
    INDEXED_JOIN = "indexed_join"


@dataclass
class JoinResult:
    """Outcome of servicing one bucket."""

    bucket_index: int
    strategy: JoinStrategy
    cost_ms: float
    io_cost_ms: float
    match_cost_ms: float
    objects_processed: int
    cache_hit: bool
    #: Every consumer in the engines reads ``match_count``; the pairs are a
    #: read-only sequence (columnar and lazily materialised on the scan path
    #: over a file-backed store, see :class:`~repro.core.kernels.MatchColumns`).
    matches: Sequence[MatchedPair] = ()
    match_count: int = 0


class HybridJoinEvaluator:
    """Evaluates workload queues against buckets with the hybrid strategy."""

    def __init__(
        self,
        cost: CostModel,
        cache: BucketCacheManager,
        threshold_fraction: Optional[float] = None,
        enable_hybrid: bool = False,
        match_probability: float = 0.85,
    ) -> None:
        """
        Parameters
        ----------
        cost:
            The cost model (Tb, Tm, index probe cost).
        cache:
            Bucket cache used by the scan path.
        threshold_fraction:
            Hybrid-join threshold as a fraction of the bucket's object
            count.  ``None`` derives the break-even point from the cost
            model (≈3 % with the paper's constants).
        enable_hybrid:
            Whether an index on the join key exists, so the indexed path
            may be chosen.  When false (the default), every service uses a
            sequential scan (also the threshold ablation's "off" arm).
        match_probability:
            Matches of the workload entries that are not joined (on a
            count-only bucket, footprint-only entries, every entry of an
            indexed service) are estimated as this fraction of their objects.
        """
        if threshold_fraction is not None and threshold_fraction < 0:
            raise ValueError("threshold_fraction must be non-negative")
        if not 0.0 <= match_probability <= 1.0:
            raise ValueError("match_probability must be within [0, 1]")
        self.cost = cost
        self.cache = cache
        self.enable_hybrid = enable_hybrid
        self.match_probability = match_probability
        self._threshold_fraction = threshold_fraction

    # ------------------------------------------------------------------ #
    # strategy selection
    # ------------------------------------------------------------------ #

    @property
    def threshold_fraction(self) -> float:
        """The workload-queue/bucket ratio above which the scan is used."""
        if self._threshold_fraction is not None:
            return self._threshold_fraction
        return self.cost.breakeven_fraction()

    def choose_strategy(
        self,
        queue_objects: int,
        bucket_objects: int,
        bucket_resident: bool,
        force: Optional[JoinStrategy] = None,
    ) -> JoinStrategy:
        """Pick the join strategy for one bucket service.

        A resident bucket is always scanned (matching from memory beats any
        random I/O); otherwise the queue size is compared against the
        threshold fraction of the bucket.
        """
        if force is not None:
            return force
        if not self.enable_hybrid:
            return JoinStrategy.SEQUENTIAL_SCAN
        if bucket_resident:
            return JoinStrategy.SEQUENTIAL_SCAN
        if bucket_objects <= 0:
            return JoinStrategy.INDEXED_JOIN
        ratio = queue_objects / bucket_objects
        if ratio < self.threshold_fraction:
            return JoinStrategy.INDEXED_JOIN
        return JoinStrategy.SEQUENTIAL_SCAN

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        bucket_spec: BucketSpec,
        entries: Sequence[WorkloadEntry],
        force_strategy: Optional[JoinStrategy] = None,
        share_io: bool = True,
    ) -> JoinResult:
        """Service one bucket's (possibly partial) workload queue.

        Parameters
        ----------
        bucket_spec:
            The bucket being serviced.
        entries:
            The workload entries batched into this service.
        force_strategy:
            Override the hybrid choice (used by the NoShare and IndexOnly
            baselines).
        share_io:
            When false the bucket cache is bypassed entirely: the read is
            charged in full and the bucket is not retained, which is how the
            NoShare baseline models per-query, unshared I/O.
        """
        queue_objects = sum(entry.object_count for entry in entries)
        if queue_objects == 0:
            return JoinResult(
                bucket_index=bucket_spec.index,
                strategy=JoinStrategy.SEQUENTIAL_SCAN,
                cost_ms=0.0,
                io_cost_ms=0.0,
                match_cost_ms=0.0,
                objects_processed=0,
                cache_hit=False,
            )
        resident = share_io and self.cache.resident(bucket_spec.index)
        strategy = self.choose_strategy(
            queue_objects, bucket_spec.object_count, resident, force_strategy
        )
        if strategy is JoinStrategy.INDEXED_JOIN:
            return self._evaluate_indexed(bucket_spec, entries, queue_objects)
        return self._evaluate_scan(bucket_spec, entries, queue_objects, share_io)

    def _evaluate_scan(
        self,
        bucket_spec: BucketSpec,
        entries: Sequence[WorkloadEntry],
        queue_objects: int,
        share_io: bool,
    ) -> JoinResult:
        if share_io:
            load = self.cache.load(bucket_spec.index)
            bucket, io_cost, cache_hit = load.bucket, load.io_cost_ms, load.hit
        else:
            read = self.cache.store.read_bucket(bucket_spec.index)
            bucket, io_cost, cache_hit = read.bucket, read.cost_ms, False
        match_cost = self.cost.tm_ms * queue_objects
        matches = self._merge_join(bucket, entries)
        # One rule per entry: an entry is *joined* when the bucket is
        # materialised and the entry carries objects, and counts the pairs
        # the kernel found for it, zero included.  Every other entry (a
        # count-only bucket's, or a footprint-only one) is estimated.
        estimated_objects = sum(
            entry.object_count for entry in entries if bucket.columns is None or not entry.objects
        )
        match_count = len(matches) + self._estimate_matches(estimated_objects)
        return JoinResult(
            bucket_index=bucket_spec.index,
            strategy=JoinStrategy.SEQUENTIAL_SCAN,
            cost_ms=io_cost + match_cost,
            io_cost_ms=io_cost,
            match_cost_ms=match_cost,
            objects_processed=queue_objects,
            cache_hit=cache_hit,
            # Results outlive their service (the engine keeps every batch):
            # an empty one must not pin the decoded block it came from.
            matches=matches or (),
            match_count=match_count,
        )

    def _evaluate_indexed(
        self,
        bucket_spec: BucketSpec,
        entries: Sequence[WorkloadEntry],
        queue_objects: int,
    ) -> JoinResult:
        # Indexed services are estimated by design: the probe path prices
        # random I/O per object and never reads the bucket, so it has no
        # pairs to count, even over a materialised store.
        io_cost = self.cost.index_cost_ms(queue_objects)
        return JoinResult(
            bucket_index=bucket_spec.index,
            strategy=JoinStrategy.INDEXED_JOIN,
            cost_ms=io_cost,
            io_cost_ms=io_cost,
            match_cost_ms=0.0,
            objects_processed=queue_objects,
            cache_hit=False,
            match_count=self._estimate_matches(queue_objects),
        )

    # ------------------------------------------------------------------ #
    # the actual spatial join (full-fidelity mode)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _merge_join(bucket: Bucket, entries: Sequence[WorkloadEntry]) -> Sequence[MatchedPair]:
        """Plane-sweep merge of the workload queue against the bucket.

        "Objects in both the bucket and its corresponding workload queue
        are first sorted by their HTM IDs.  The join is performed by
        simultaneously scanning and merging objects in both" (§3.1).  The
        bucket side is a ``.lrbs`` column block, already HTM-sorted, and
        :func:`~repro.core.kernels.crossmatch_block` runs the merge over it
        in place; a count-only bucket has nothing to join.
        """
        if bucket.columns is None:
            return ()
        return crossmatch_block(bucket.columns, entries)

    # ------------------------------------------------------------------ #
    # virtual-mode estimates
    # ------------------------------------------------------------------ #

    def _estimate_matches(self, queue_objects: int) -> int:
        return int(round(self.match_probability * queue_objects))
