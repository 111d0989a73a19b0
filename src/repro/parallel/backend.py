"""What a sharded run is, beside the loop that drives it.

A sharded run's topology — N shard workers, staged per-worker arrival
schedules, whole-queue work stealing at window barriers — is independent
of *where* the workers run.  One loop drives it, the channel coordinator
(:class:`repro.reliability.runtime.ShardCoordinator`), over one message
protocol (:mod:`repro.parallel.ipc`); an execution backend is only the
name of the channel kind the messages travel on (:data:`BACKENDS`):
``"virtual"`` keeps every shard beside the coordinator (the deterministic
default every test drives), ``"process"`` gives each its own OS process
(``multiprocessing``, spawn-safe; every child rebuilds a read-only
:class:`~repro.storage.bucket_store.StoreSnapshot` of the archive).

This module keeps the run's description (:class:`ParallelRunSpec`) and
the coordinator's pure bookkeeping — the arrival fan-out, the per-shard
:class:`ShardView` and the steal rule (:func:`run_steal_round`: at each
window barrier an idle shard adopts the most starving bucket queue of a
busy one, :class:`~repro.parallel.ipc.ReleaseBucket` /
:class:`~repro.parallel.ipc.AdoptBucket` messages).

Either backend returns the same :class:`BackendOutcome` — one merged
:class:`~repro.core.engine.EngineReport`, the shards' own
:class:`~repro.parallel.ipc.WorkerResult` messages, the steal records and
one global service log, each fact once — and every virtual-clock fact in
it is the same bit for bit, steals included: the run description alone
determines the result.  Only the *real* wall clock
(:attr:`BackendOutcome.real_elapsed_s`) differs, which is what the
process backend exists to improve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.engine import EngineConfig, EngineReport
from repro.core.preprocessor import QueryPreProcessor
from repro.core.scheduler import SchedulingPolicy
from repro.parallel.engine import CompletionTracker, StealRecord
from repro.parallel.ipc import (
    AdoptBucket,
    BatchRecord,
    BucketQueueMeta,
    ReleaseBucket,
    WindowReport,
    WorkerResult,
)
from repro.parallel.sharding import ShardPlan
from repro.parallel.worker import StagedShare
from repro.storage.bucket_store import BucketStore
from repro.storage.partitioner import PartitionLayout
from repro.workload.query import CrossMatchQuery

if TYPE_CHECKING:
    from repro.reliability.config import ReliabilityConfig, ReliabilityReport

#: Default steal window of every sharded run, as a multiple of the
#: bucket-read cost ``Tb``: long enough that a window amortises tens of
#: services (every barrier costs one message round trip per shard), short
#: enough that an idle shard still adopts foreign backlog well before the
#: run drains.  On the full-scale saturated trace, 64 bucket reads give a
#: 3.66x virtual-clock speedup at 4 workers; a barrier after every service
#: measured 3.99x for ~8x the coordination traffic.
DEFAULT_QUANTUM_BUCKET_READS = 64.0

#: The execution backends by name: where a sharded run's shard workers
#: live.  :class:`~repro.sim.runspec.RunSpec` validates against it, the
#: coordinator looks up its channel kind in it and the CLI offers it.
BACKENDS = ("virtual", "process")


def fan_out_arrivals(
    spec: "ParallelRunSpec", plan: ShardPlan, tracker: CompletionTracker
) -> List[List[StagedShare]]:
    """Build every shard's arrival schedule from the trace.

    Per-shard schedules are the unit of recovery — a shard restored from
    a checkpoint replays exactly the tail of the schedule built here.
    """
    preprocessor = QueryPreProcessor(spec.layout)
    arrivals: List[List[StagedShare]] = [[] for _ in range(spec.workers)]
    ordered = sorted(spec.queries, key=lambda q: (q.arrival_time_s, q.query_id))
    for query in ordered:
        arrival_ms = query.arrival_time_s * 1000.0
        assignments = preprocessor.assign(query)
        if not assignments:
            # No overlap at this site: completes immediately (as serially).
            continue
        tracker.register(query.query_id, assignments.keys(), arrival_ms)
        for bucket_index, payload in assignments.items():
            arrivals[plan.owner_of(bucket_index)].append(
                StagedShare(arrival_ms, query.query_id, bucket_index, payload)
            )
    return arrivals


@dataclass
class ParallelRunSpec:
    """Everything one parallel run needs, independent of the backend."""

    layout: PartitionLayout
    store: BucketStore
    queries: Sequence[CrossMatchQuery]
    policy: SchedulingPolicy
    config: EngineConfig
    workers: int = 1
    shard_strategy: str = "round_robin"
    enable_stealing: bool = True
    #: Virtual-time window between steal barriers;
    #: ``None`` derives it from the cost model's bucket-read time.
    steal_quantum_ms: Optional[float] = None
    #: Checkpoint/recovery configuration.  When set, both backends run
    #: the channel coordinator with its barrier hooks on: the run is
    #: always windowed (barriers are where checkpoints are captured and
    #: crashes injected), and dead shards are restored from their latest
    #: checkpoint.
    reliability: Optional["ReliabilityConfig"] = None

    def quantum_ms(self) -> float:
        """The window of the run: a reliability run's own
        ``window_quantum_ms`` when it sets one, else the steal window."""
        if self.reliability is not None and self.reliability.window_quantum_ms is not None:
            return self.reliability.window_quantum_ms
        if self.steal_quantum_ms is not None:
            if self.steal_quantum_ms <= 0:
                raise ValueError("steal_quantum_ms must be positive")
            return self.steal_quantum_ms
        return self.config.cost.tb_ms * DEFAULT_QUANTUM_BUCKET_READS


@dataclass
class BackendOutcome:
    """What every execution backend returns; each fact is recorded once.

    Completions are the keys of ``report.response_times_ms`` (in global
    completion order); per-shard clocks, busy time and store reads are
    read off :attr:`results`.  The serial engine's pass is the same
    record with ``backend="serial"`` and no shard results.
    """

    backend: str
    report: EngineReport
    #: Every shard's final accounting, in worker-id order.
    results: List[WorkerResult]
    steal_records: List[StealRecord]
    #: Every bucket service of the run, in global finish order
    #: (``finished_at_ms``, then worker id, then the shard's sequence).
    services: List[BatchRecord]
    #: Real (measured) wall-clock of the run, including backend setup.
    real_elapsed_s: float
    #: Reliability runs only: what the checkpoint/recovery machinery did.
    reliability: Optional["ReliabilityReport"] = None
    #: Merged telemetry snapshot of the run (lane registries folded in
    #: worker-id order, plus store and coordinator registries).  The
    #: virtual domain of this snapshot is backend-invariant.
    telemetry: Optional[dict] = None
    #: Window-barrier virtual times of windowed runs (empty when the run
    #: drained in a single window) — exported as trace instants.
    window_boundaries_ms: List[float] = field(default_factory=list)

    def coverage(self) -> Dict[int, frozenset]:
        """Per-query bucket coverage: which buckets serviced each query."""
        covered: Dict[int, set] = {}
        for record in self.services:
            for query_id in record.queries_served:
                covered.setdefault(query_id, set()).add(record.bucket_index)
        return {query_id: frozenset(buckets) for query_id, buckets in covered.items()}


class ShardView:
    """A coordinator's bookkeeping of one shard between window barriers.

    Tracks only what steal and boundary decisions need — the shard's
    clock, its pending-queue metadata and its next staged arrival — and
    folds each :class:`~repro.parallel.ipc.WindowReport` back in.
    """

    def __init__(self, worker_id: int, arrivals: Sequence[StagedShare]):
        self.worker_id = worker_id
        self.clock_ms = 0.0
        self.pending: Dict[int, BucketQueueMeta] = {}
        self.next_staged_ms: Optional[float] = arrivals[0].arrival_ms if arrivals else None
        self.drained = not arrivals

    def apply_window(self, report: WindowReport) -> None:
        """Fold a window report into the coordinator's view of the shard."""
        self.clock_ms = report.clock_ms
        self.pending = {meta.bucket_index: meta for meta in report.pending}
        self.next_staged_ms = report.next_staged_ms
        self.drained = report.drained

    def apply_adopt(self, message: AdoptBucket) -> None:
        """Fold a delivered migration into the view (mirrors the shard's adopt)."""
        if message.entries:
            enqueues = [entry.enqueue_time_ms for entry in message.entries]
            self.pending[message.bucket_index] = BucketQueueMeta(
                bucket_index=message.bucket_index,
                entry_count=len(message.entries),
                oldest_enqueue_ms=min(enqueues),
                newest_enqueue_ms=max(enqueues),
            )
        if message.staged:
            staged_first = min(share.arrival_ms for share in message.staged)
            if self.next_staged_ms is None or staged_first < self.next_staged_ms:
                self.next_staged_ms = staged_first
        self.clock_ms = max(self.clock_ms, message.clock_ms)
        self.drained = not self.pending and self.next_staged_ms is None

    def boundary_candidate_ms(self) -> Optional[float]:
        """Earliest virtual time at which this shard can make progress."""
        if self.drained:
            return None
        if self.pending:
            return self.clock_ms
        if self.next_staged_ms is None:
            return None
        return max(self.clock_ms, self.next_staged_ms)


def run_steal_round(
    views: Sequence[ShardView],
    request: Callable[[int, object], object],
) -> Iterator[Tuple[StealRecord, AdoptBucket]]:
    """Window-barrier work stealing: idle shards adopt starving queues.

    The one steal rule: each idle shard (no queued
    work) may adopt the globally most starving foreign queue — oldest
    pending entry first — provided it can start the service strictly
    earlier than the victim could (``max(thief clock, newest entry)``
    versus the victim's clock).  Queues migrate whole, together with
    their not-yet-ingested staged shares, so batching is preserved and
    future arrivals follow the queue.

    *request* ``(worker_id, message) -> reply`` is the coordinator's
    crash-recovering round trip; both halves of a migration go through
    it.  Each migration is yielded as ``(record, adopt message)`` once
    both halves were delivered and before the next one starts, so the
    caller records and journals it at once (a recovery later in the same
    round replays the journal).
    """
    thieves = sorted(
        (view for view in views if not view.pending),
        key=lambda view: (view.clock_ms, view.worker_id),
    )
    for thief in thieves:
        best: Optional[Tuple[float, int, ShardView]] = None
        for victim in views:
            if victim.worker_id == thief.worker_id:
                continue
            for meta in victim.pending.values():
                key = (meta.oldest_enqueue_ms, meta.bucket_index)
                if best is None or key < (best[0], best[1]):
                    best = (meta.oldest_enqueue_ms, meta.bucket_index, victim)
        if best is None:
            break  # nothing pending anywhere
        _oldest, bucket_index, victim = best
        meta = victim.pending[bucket_index]
        start_ms = max(thief.clock_ms, meta.newest_enqueue_ms)
        if start_ms >= victim.clock_ms:
            continue  # migration would not start the service any earlier
        released = request(victim.worker_id, ReleaseBucket(bucket_index))
        if not released.entries:
            continue  # defensive: the queue vanished between windows
        message = AdoptBucket(
            bucket_index=bucket_index,
            entries=released.entries,
            staged=released.staged,
            clock_ms=start_ms,
        )
        request(thief.worker_id, message)
        del victim.pending[bucket_index]
        victim.next_staged_ms = released.next_staged_ms
        victim.drained = not victim.pending and victim.next_staged_ms is None
        thief.apply_adopt(message)
        record = StealRecord(
            time_ms=start_ms,
            bucket_index=bucket_index,
            victim_id=victim.worker_id,
            thief_id=thief.worker_id,
            entry_count=len(released.entries),
        )
        yield record, message
