"""Execution backends behind the :class:`~repro.parallel.sharding.ShardPlan` seam.

A sharded run's topology — N shard workers, staged per-worker arrival
schedules, whole-queue work stealing at window barriers — is independent
of *where* the workers run.  One loop drives it, the channel coordinator
(:class:`repro.reliability.runtime.ShardCoordinator`), over one message
protocol (:mod:`repro.parallel.ipc`); an :class:`ExecutionBackend` only
names the channel kind the messages travel on:

* :class:`VirtualBackend` — every shard lives beside the coordinator
  (:class:`~repro.reliability.runtime.InlineChannel`; the deterministic
  default every test drives);
* :class:`ProcessBackend` — every shard lives in its own OS process
  (:class:`~repro.reliability.runtime.ProcessChannel`; ``multiprocessing``,
  spawn-safe): per-shard workloads ship as pickled
  :class:`~repro.parallel.ipc.ShardTask` messages and every child rebuilds
  a read-only :class:`~repro.storage.bucket_store.StoreSnapshot` of the
  archive.

Work stealing is message passing on both: at each window barrier the
coordinator re-assigns the most starving bucket queue from a busy shard
to an idle one (:class:`~repro.parallel.ipc.ReleaseBucket` /
:class:`~repro.parallel.ipc.AdoptBucket`, :func:`run_steal_round`).  This
module keeps the coordinator's pure bookkeeping — the arrival fan-out,
the per-shard :class:`ShardView`, the steal rule and the outcome merge.

Both backends return the same :class:`BackendOutcome` — one merged
:class:`~repro.core.engine.EngineReport`, the shards' own
:class:`~repro.parallel.ipc.WorkerResult` messages, the steal records and
one global service log, each fact once — and every virtual-clock fact in
it is the same bit for bit, steals included: the run description alone
determines the result.  Only the *real* wall clock
(:attr:`BackendOutcome.real_elapsed_s`) differs, which is what the
process backend exists to improve.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.engine import EngineConfig, EngineReport, build_engine_report
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
    trim_idle_workers,
)
from repro.parallel.sharding import ShardPlan
from repro.parallel.worker import StagedShare
from repro.telemetry.registry import REAL_DOMAIN, MetricsRegistry, merge_snapshots
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


def coordinator_snapshot(
    steal_count: int = 0,
    window_count: int = 0,
    reliability: Optional["ReliabilityReport"] = None,
    worker_processes: Optional[Dict[str, float]] = None,
) -> Optional[dict]:
    """Coordinator-side accounting as a mergeable telemetry snapshot.

    Everything here lives in the **real** domain: window counts and steal
    totals depend on barrier placement (a coordination artefact, not part
    of the deterministic contract), and checkpoint bytes / crash counts
    are operational profile.  Counters are only created when non-zero, so
    a single-drain run (stealing off, no reliability) has none of them.
    *worker_processes* is the process backend's boot accounting
    (``coordinator.workers_booted`` / ``workers_reused`` / ``boot_s``): it
    says whether the run's ``real_elapsed_s`` paid for interpreter boots.
    """
    registry = MetricsRegistry()
    for name, value in (
        ("coordinator.steals", steal_count),
        ("coordinator.windows", window_count),
        *(worker_processes or {}).items(),
    ):
        if value:
            registry.counter(name, domain=REAL_DOMAIN).inc(value)
    if reliability is not None:
        for name, value in (
            ("reliability.windows", reliability.windows),
            ("reliability.checkpoints_written", reliability.checkpoints_written),
            ("reliability.checkpoint_bytes", reliability.checkpoint_bytes),
            ("reliability.checkpoint_real_s", reliability.checkpoint_real_s),
            ("reliability.crashes_injected", reliability.crashes_injected),
            ("reliability.recoveries", reliability.recovery_count),
            ("reliability.scale_events", len(reliability.scale_events)),
        ):
            if value:
                registry.counter(name, domain=REAL_DOMAIN).inc(value)
    snapshot = registry.snapshot()
    return snapshot if snapshot["metrics"] else None


def merge_backend_outcome(
    backend_name: str,
    spec: "ParallelRunSpec",
    plan: ShardPlan,
    tracker: CompletionTracker,
    batches: List[BatchRecord],
    steal_records: List[StealRecord],
    results: Sequence[WorkerResult],
    elapsed_s: float,
    reliability: Optional["ReliabilityReport"] = None,
    window_boundaries_ms: Optional[List[float]] = None,
    worker_processes: Optional[Dict[str, float]] = None,
) -> BackendOutcome:
    """Merge per-shard batch records and accounting into one outcome.

    The service log is put in global finish order once, here: ties break
    by worker id, then by the shard's own sequence number, so the order
    does not depend on which shard replied first.  Replayed in that order,
    the tracker stamps each query at the finish of its last-finishing
    service — the completion law the ledger and the result streams read
    off the same log.
    """
    batches.sort(key=lambda r: (r.finished_at_ms, r.worker_id, r.seq))
    for record in batches:
        for query_id in record.queries_served:
            tracker.on_serviced(query_id, record.bucket_index, record.finished_at_ms)
    ordered_results = sorted(results, key=lambda r: r.worker_id)
    boundaries = list(window_boundaries_ms or [])
    telemetry = merge_snapshots(
        [r.telemetry for r in ordered_results]
        + [
            coordinator_snapshot(
                steal_count=len(steal_records),
                window_count=len(boundaries),
                reliability=reliability,
                worker_processes=worker_processes,
            )
        ]
    )
    report = build_engine_report(
        f"parallel(workers={spec.workers}, policy={spec.policy.name}, shard={plan.strategy})",
        tracker.submitted_count,
        tracker.response_times_ms(),
        tracker.first_arrival_ms,
        tracker.last_completion_ms,
        telemetry,
    )
    return BackendOutcome(
        backend=backend_name,
        report=report,
        results=ordered_results,
        steal_records=steal_records,
        services=batches,
        real_elapsed_s=elapsed_s,
        reliability=reliability,
        telemetry=telemetry,
        window_boundaries_ms=boundaries,
    )


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
        """The steal window of the run."""
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


class ExecutionBackend(ABC):
    """Strategy interface: run one sharded workload to completion."""

    name: str = "abstract"

    @abstractmethod
    def execute(self, spec: ParallelRunSpec) -> BackendOutcome:
        """Run *spec* to completion and return the merged outcome."""


class VirtualBackend(ExecutionBackend):
    """Every shard beside the coordinator, no process (the default for tests).

    The coordinator and the protocol are the process backend's; a message
    is a method call on the shard's :class:`~repro.parallel.ipc.
    ShardWorker`.  Every shard still gets a private store rebuilt from
    the run's snapshot, so per-shard read accounting matches too.
    """

    name = "virtual"

    def execute(self, spec: ParallelRunSpec) -> BackendOutcome:
        from repro.reliability.runtime import InlineChannel, ShardCoordinator

        return ShardCoordinator(spec, self.name, InlineChannel).execute()


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


class ProcessBackend(ExecutionBackend):
    """One OS process per shard worker, coordinated over pipes.

    The channel coordinator pre-computes every shard's full arrival
    schedule, ships it with a read-only store snapshot to each child,
    then advances all shards concurrently:

    * stealing disabled — a single drain message per shard, maximal
      parallelism, each shard a pure function of its schedule;
    * stealing enabled — bounded virtual-time windows; at every barrier
      idle shards adopt the most starving foreign bucket queue (entries
      *and* staged future), whole, as messages;
    * ``spec.reliability`` set — always windowed, with checkpoints, crash
      injection/recovery and scale events at the barriers.

    Virtual-clock accounting (busy time, I/O, services, per-query bucket
    coverage) is identical to the virtual backend by construction — same
    loop, same messages; the parity tests pin that down.
    """

    name = "process"

    def execute(self, spec: ParallelRunSpec) -> BackendOutcome:
        from repro.reliability.runtime import ProcessChannel, ShardCoordinator

        coordinator = ShardCoordinator(spec, self.name, ProcessChannel)
        outcome = coordinator.execute()
        # The run's workers are idle now; keep no more than it had shards,
        # plus the spare when the run was a reliability run.
        trim_idle_workers(len(coordinator.channels) + (spec.reliability is not None))
        return outcome


#: Registry of execution backends by name.
EXECUTION_BACKENDS = {
    VirtualBackend.name: VirtualBackend,
    ProcessBackend.name: ProcessBackend,
}


def make_backend(backend: Union[str, ExecutionBackend]) -> ExecutionBackend:
    """Resolve a backend instance from a name or pass an instance through."""
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend not in EXECUTION_BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; available: "
            f"{sorted(EXECUTION_BACKENDS)}"
        )
    return EXECUTION_BACKENDS[backend]()
