"""The shard, the message protocol it answers, and the worker processes
that can carry it.

A shard is one object, :class:`ShardWorker`: a service lane
(:class:`~repro.core.engine.ServiceLoop`: workload manager, scheduler,
bucket cache, hybrid join evaluator) with its own virtual clock, its
staged arrivals and its batch cursor.  A small synchronous message
protocol driven by the channel coordinator
(:class:`repro.reliability.runtime.ShardCoordinator`) is answered by one
method (:meth:`ShardWorker.handle`) wherever the shard lives: beside
the coordinator (the virtual backend's inline channel) or in an OS
process of its own behind a duplex pipe (the process backend).  A worker
process has one lifecycle (:func:`shard_worker_main`): *boot → idle → serve a
task → idle … → exit when the pipe closes*.  It is started with nothing
but its end of the pipe, so N of them boot concurrently, and a run that
ends normally hands its workers to this module's idle list
(:func:`release_worker`), from which the next run in the same parent
draws (:func:`acquire_worker`) before booting anything; a reliability run
also keeps one started *spare* there (:func:`keep_spare`) for its crash
recoveries:

* a pickled :class:`ShardTask` opens a run — engine config, a cloned
  scheduling policy, a read-only
  :class:`~repro.storage.bucket_store.StoreSnapshot` and the shard's full
  arrival schedule as :class:`~repro.parallel.worker.StagedShare`s;
* :class:`RunWindow` advances the shard's virtual clock up to a boundary
  (or drains it completely), returning a :class:`WindowReport` with the
  clock, pending-queue metadata and the window's
  :class:`BatchRecord`s;
* :class:`ReleaseBucket` / :class:`AdoptBucket` migrate one whole workload
  queue (entries *and* its not-yet-ingested staged shares) between
  processes — work stealing as message passing;
* :class:`Finalize` collects the shard's final state as a
  :class:`WorkerResult`: its clock, its store reads and its lane's
  metrics-registry snapshot — the one record of the lane's totals, which
  the coordinator merges in worker-id order into the run's report;
* :class:`CaptureCheckpoint` has the child write its resumable state as a
  ``.lrcp`` file (see :mod:`repro.reliability.checkpoint`); a respawned
  child restores from :attr:`ShardTask.checkpoint_path` and resumes its
  batch numbering at the checkpoint's cursor;
* :class:`EndTask` closes the run: the shard closes its store; a worker
  process then drops the shard and is idle again.

Everything the protocol ships must pickle under the ``spawn`` start
method; the shard is plain in-process code, so the worker process and
the inline channel answer every message through the very same method.
The shard's local rule — deliver arrivals at or before the clock, jump
an idle shard to its next arrival, service at the clock — makes its
timeline a pure function of the messages it received, so both backends
are bit-for-bit identical, stealing included (the cross-backend parity
tests pin this down).
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.engine import EngineConfig, ServiceLoop, build_service_loop
from repro.core.scheduler import SchedulingPolicy
from repro.core.workload_manager import WorkloadEntry
from repro.parallel.worker import StagedShare
from repro.storage.bucket_store import BucketStore, StoreSnapshot

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

#: Slack used when comparing virtual timestamps, matching the arrival
#: delivery slack of the serial simulator loop.
TIME_EPS = 1e-9


# --------------------------------------------------------------------- #
# coordinator -> worker messages
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker process needs to rebuild its shard.

    The first message of a run; it has no reply (a shard that cannot be
    built answers the next message with a :class:`WorkerFailure`).
    """

    worker_id: int
    config: EngineConfig
    policy: SchedulingPolicy
    snapshot: StoreSnapshot
    arrivals: Tuple[StagedShare, ...]
    #: Recovery only: restore the shard from this ``.lrcp`` checkpoint
    #: after rebuilding it, then resume the schedule tail from there.
    checkpoint_path: Optional[str] = None


@dataclass(frozen=True)
class RunWindow:
    """Advance the shard until *until_ms* (``None`` = drain everything)."""

    until_ms: Optional[float]


@dataclass(frozen=True)
class ReleaseBucket:
    """Hand bucket *bucket_index*'s queue to the coordinator (steal source)."""

    bucket_index: int


@dataclass(frozen=True)
class AdoptBucket:
    """Adopt a migrated queue and start it at *clock_ms* (steal target)."""

    bucket_index: int
    entries: Tuple[WorkloadEntry, ...]
    staged: Tuple[StagedShare, ...]
    clock_ms: float


@dataclass(frozen=True)
class ReleaseAllBuckets:
    """Hand *every* queue (pending and staged) to the coordinator.

    The planned scale-down message: a departing shard evacuates its whole
    remaining workload through the same release seam stealing uses, one
    :class:`ReleasedBucket` per queue.
    """


@dataclass(frozen=True)
class CaptureCheckpoint:
    """Capture the shard's state at the current barrier into *path*.

    The child serialises and writes the ``.lrcp`` file itself — real
    checkpoint I/O happens in parallel across shards, and the coordinator
    only learns the summary.
    """

    path: str
    window_index: int


@dataclass(frozen=True)
class Finalize:
    """Request the shard's final state (a :class:`WorkerResult`)."""


@dataclass(frozen=True)
class EndTask:
    """The run is over: close the shard's store.

    Answered with an :class:`Ack` once the store is closed; the shard
    takes no message after it.  A worker process then drops the shard and
    goes idle, so a worker on the idle list holds nothing of the run it
    served.
    """


# --------------------------------------------------------------------- #
# worker -> coordinator messages
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkerBooted:
    """A fresh worker process's first message: interpreter up, modules
    imported, waiting for a task."""


@dataclass(frozen=True)
class BatchRecord:
    """One bucket service, reduced to what the coordinator must know.

    Besides driving completion bookkeeping, batch records are the payload
    of the serving layer's incremental result streams: per served query
    they carry the drained object count, so partial-answer chunks ride the
    same message channel as the rest of the protocol.
    """

    worker_id: int
    seq: int
    bucket_index: int
    queries_served: Tuple[int, ...]
    started_at_ms: float
    finished_at_ms: float
    #: Objects drained per served query, aligned with ``queries_served``.
    objects_served: Tuple[int, ...] = ()
    #: The batch's I/O vs match cost split (virtual ms).  Rides the IPC
    #: seam so the cost ledger can attribute cache hits per query without
    #: a second channel; defaulted for producers that predate the ledger.
    io_ms: float = 0.0
    match_ms: float = 0.0


@dataclass(frozen=True)
class BucketQueueMeta:
    """Steal-relevant metadata of one pending workload queue."""

    bucket_index: int
    entry_count: int
    oldest_enqueue_ms: float
    newest_enqueue_ms: float


@dataclass(frozen=True)
class WindowReport:
    """State of one shard at a window boundary."""

    worker_id: int
    clock_ms: float
    #: ``True`` once the shard has neither queued nor staged work left.
    drained: bool
    #: Pending queues at the boundary (steal victims advertise these).
    pending: Tuple[BucketQueueMeta, ...]
    batches: Tuple[BatchRecord, ...]
    #: Arrival time of the shard's next staged share (``None`` when empty);
    #: the coordinator derives the next window boundary from it.
    next_staged_ms: Optional[float] = None


@dataclass(frozen=True)
class ReleasedBucket:
    """A migrated queue: its entries plus its un-ingested staged shares."""

    worker_id: int
    bucket_index: int
    entries: Tuple[WorkloadEntry, ...]
    staged: Tuple[StagedShare, ...]
    clock_ms: float
    #: The victim's next staged arrival *after* the extraction (``None``
    #: when its stage is empty); keeps the coordinator's view current.
    next_staged_ms: Optional[float] = None


@dataclass(frozen=True)
class ReleasedAll:
    """Reply to :class:`ReleaseAllBuckets`: the shard's evacuated queues."""

    worker_id: int
    buckets: Tuple[ReleasedBucket, ...]


@dataclass(frozen=True)
class Ack:
    """Plain acknowledgement keeping the protocol synchronous."""

    worker_id: int


@dataclass(frozen=True)
class CheckpointWritten:
    """Reply to :class:`CaptureCheckpoint`: the written file's summary."""

    worker_id: int
    window_index: int
    clock_ms: float
    #: Batch records emitted before the barrier (the replay cursor).
    seq: int
    byte_size: int
    #: Real seconds the capture + write took on the shard.
    real_elapsed_s: float


@dataclass(frozen=True)
class WorkerResult:
    """A shard's final state: its clock, its store reads and its lane snapshot."""

    worker_id: int
    clock_ms: float
    store_reads: int
    #: The lane's telemetry snapshot (a plain picklable dict; see
    #: :mod:`repro.telemetry.registry`): the one record of the shard's
    #: totals, merged in worker-id order by the coordinator.
    telemetry: dict
    #: File-backed stores only: this shard's physical read + decode time.
    store_real_read_s: float = 0.0


@dataclass(frozen=True)
class WorkerFailure:
    """A worker process died; carries the formatted traceback."""

    worker_id: int
    traceback_text: str


# --------------------------------------------------------------------- #
# the shard (the same object in a worker process and in-process)
# --------------------------------------------------------------------- #


class ShardWorker:
    """One shard: a service lane, its clock, its stage and its batch cursor.

    The shard replays its staged arrival schedule on its own timeline by
    the serial replay rule: ingest every share whose arrival time the
    clock has reached, service at the clock while work is pending, and
    jump an idle shard forward to its next arrival.  ``advance(until_ms)``
    stops before any service or jump that would start at or past the
    boundary, so window boundaries pause the timeline without altering it.
    """

    def __init__(
        self, worker_id: int, loop: ServiceLoop, arrivals: Iterable[StagedShare] = ()
    ) -> None:
        self.worker_id = worker_id
        #: The lane: workload manager, scheduler, bucket cache, evaluator.
        self.loop = loop
        #: The shard's private virtual clock.
        self.now_ms = 0.0
        #: Arrivals not yet on the shard's timeline, in arrival order.
        self.staged: Deque[StagedShare] = deque(arrivals)
        #: Whether the stage is still a suffix of the shard's own arrival
        #: schedule: true until a release takes a staged share or an adopt
        #: brings one.  While it holds, a checkpoint stores only the
        #: stage's length.
        self.stage_is_own = True
        #: Next batch sequence number.  A recovered shard resumes at its
        #: checkpoint's cursor so replayed records carry the same numbers
        #: the lost originals did.
        self.seq = 0

    @classmethod
    def from_task(cls, task: ShardTask) -> ShardWorker:
        """Build a shard from its pickled task: the one construction recipe.

        The layout comes from the restored store, not the snapshot
        directly: path-based snapshots carry no layout (the store file
        does), and the in-memory variant restores the same object either
        way.  With :attr:`ShardTask.checkpoint_path` set the shard is then
        restored from that checkpoint and resumes emitting batch records at
        its cursor; the checkpoint is generation-bound — restoring against
        a store that was re-ingested since the capture fails cleanly.
        """
        store = BucketStore.from_snapshot(task.snapshot)
        loop = build_service_loop(
            store.layout, store, task.policy, task.config, shard=task.worker_id
        )
        shard = cls(task.worker_id, loop, task.arrivals)
        if task.checkpoint_path is not None:
            from repro.reliability.checkpoint import restore_shard

            restore_shard(task.checkpoint_path, shard, expected_generation=store.generation)
        return shard

    def close(self) -> None:
        """Release the shard's private store (its file and page cache)."""
        self.loop.cache.store.close()

    def handle(self, message):
        """Answer one coordinator message (the whole protocol, one place)."""
        if isinstance(message, RunWindow):
            return self.window_report(self.advance(message.until_ms))
        if isinstance(message, ReleaseBucket):
            return self.release(message.bucket_index)
        if isinstance(message, ReleaseAllBuckets):
            return self.release_all()
        if isinstance(message, AdoptBucket):
            self.adopt(message)
            return Ack(self.worker_id)
        if isinstance(message, CaptureCheckpoint):
            return self.capture_checkpoint(message)
        if isinstance(message, Finalize):
            return self.result()
        if isinstance(message, EndTask):
            self.close()
            return Ack(self.worker_id)
        raise TypeError(f"unexpected coordinator message: {message!r}")

    def advance(self, until_ms: Optional[float]) -> List[BatchRecord]:
        """Run services starting before *until_ms* (``None`` = drain all)."""
        loop = self.loop
        manager = loop.manager
        staged = self.staged
        records: List[BatchRecord] = []
        while True:
            # Deliver arrivals at or before the clock, exactly as the
            # serial replay loop does.
            while staged and staged[0].arrival_ms <= self.now_ms + TIME_EPS:
                share = staged.popleft()
                manager.add_query(
                    share.query_id,
                    {share.bucket_index: share.payload},
                    share.arrival_ms,
                    merge=True,
                )
            if manager.has_pending_work():
                if until_ms is not None and self.now_ms >= until_ms:
                    break
                result = loop.service_next(self.now_ms)
                if result is None:  # defensive: scheduler refused pending work
                    break
                self.now_ms = result.finished_at_ms
                records.append(
                    BatchRecord(
                        worker_id=self.worker_id,
                        seq=self.seq,
                        bucket_index=result.bucket_index,
                        queries_served=result.queries_served,
                        started_at_ms=result.started_at_ms,
                        finished_at_ms=result.finished_at_ms,
                        objects_served=result.objects_served,
                        io_ms=result.io_ms,
                        match_ms=result.match_ms,
                    )
                )
                self.seq += 1
            elif staged and (until_ms is None or staged[0].arrival_ms < until_ms):
                self.now_ms = max(self.now_ms, staged[0].arrival_ms)
            else:
                break
        return records

    def window_report(self, batches: List[BatchRecord]) -> WindowReport:
        """Summarise the shard's state at the current boundary."""
        manager = self.loop.manager
        pending: List[BucketQueueMeta] = []
        for bucket_index in sorted(manager.pending_buckets()):
            enqueue_times = [entry.enqueue_time_ms for entry in manager.queue(bucket_index).entries]
            pending.append(
                BucketQueueMeta(
                    bucket_index=bucket_index,
                    entry_count=len(enqueue_times),
                    oldest_enqueue_ms=min(enqueue_times),
                    newest_enqueue_ms=max(enqueue_times),
                )
            )
        return WindowReport(
            worker_id=self.worker_id,
            clock_ms=self.now_ms,
            drained=not manager.has_pending_work() and not self.staged,
            pending=tuple(pending),
            batches=tuple(batches),
            next_staged_ms=self.staged[0].arrival_ms if self.staged else None,
        )

    def release(self, bucket_index: int) -> ReleasedBucket:
        """Give up one whole workload queue plus its staged future.

        Work stealing takes the bucket's staged shares too, so future
        arrivals follow the migrated queue instead of splitting the bucket
        across shards.
        """
        entries = self.loop.manager.release_bucket(bucket_index)
        taken = tuple(share for share in self.staged if share.bucket_index == bucket_index)
        if taken:
            self.staged = deque(s for s in self.staged if s.bucket_index != bucket_index)
            self.stage_is_own = False
        return ReleasedBucket(
            worker_id=self.worker_id,
            bucket_index=bucket_index,
            entries=tuple(entries),
            staged=taken,
            clock_ms=self.now_ms,
            next_staged_ms=self.staged[0].arrival_ms if self.staged else None,
        )

    def release_all(self) -> ReleasedAll:
        """Evacuate every queue — pending *and* staged — for scale-down.

        The same replies as :meth:`release` for each bucket in index order
        (so the migration schedule is deterministic regardless of internal
        dict ordering), with the stage partitioned once instead of once per
        bucket.
        """
        manager = self.loop.manager
        by_bucket: Dict[int, List[StagedShare]] = {}
        for share in self.staged:
            by_bucket.setdefault(share.bucket_index, []).append(share)
        if by_bucket:
            self.staged = deque()
            self.stage_is_own = False
        buckets = sorted(set(manager.pending_buckets()).union(by_bucket))
        # The stage is in arrival order, so what is left of it after each
        # release starts at the earliest first share of the buckets behind.
        next_staged: List[Optional[float]] = []
        earliest: Optional[float] = None
        for bucket_index in reversed(buckets):
            next_staged.append(earliest)
            shares = by_bucket.get(bucket_index)
            if shares and (earliest is None or shares[0].arrival_ms < earliest):
                earliest = shares[0].arrival_ms
        next_staged.reverse()
        released = tuple(
            ReleasedBucket(
                worker_id=self.worker_id,
                bucket_index=bucket_index,
                entries=tuple(manager.release_bucket(bucket_index)),
                staged=tuple(by_bucket.get(bucket_index, ())),
                clock_ms=self.now_ms,
                next_staged_ms=next_ms,
            )
            for bucket_index, next_ms in zip(buckets, next_staged)
        )
        return ReleasedAll(worker_id=self.worker_id, buckets=released)

    def adopt(self, message: AdoptBucket) -> None:
        """Take ownership of a migrated queue, starting it at the steal time.

        The migrated staged shares merge into the stage by arrival time; on
        a tie the shard's own shares stay first.
        """
        self.loop.manager.adopt_bucket(message.bucket_index, list(message.entries))
        if message.staged:
            incoming = sorted(message.staged, key=lambda s: (s.arrival_ms, s.query_id))
            self.staged = deque(heapq.merge(self.staged, incoming, key=lambda s: s.arrival_ms))
            self.stage_is_own = False
        self.now_ms = max(self.now_ms, message.clock_ms)

    def capture_checkpoint(self, message: CaptureCheckpoint) -> CheckpointWritten:
        """Write the shard's resumable state at the current barrier."""
        from repro.reliability.checkpoint import checkpoint_shard

        started = time.perf_counter()
        info = checkpoint_shard(message.path, self, message.window_index)
        return CheckpointWritten(
            worker_id=self.worker_id,
            window_index=message.window_index,
            clock_ms=self.now_ms,
            seq=self.seq,
            byte_size=info.byte_size,
            real_elapsed_s=time.perf_counter() - started,
        )

    def result(self) -> WorkerResult:
        """The shard's final state for the coordinator.

        Every shard owns a private store rebuilt from the run's snapshot,
        so the store's real-domain registry rides along in the lane
        snapshot.
        """
        store = self.loop.cache.store
        telemetry = self.loop.telemetry.snapshot()
        store_registry = getattr(store, "telemetry", None)
        if store_registry is not None:
            from repro.telemetry.registry import merge_snapshots

            telemetry = merge_snapshots([telemetry, store_registry.snapshot()])
        return WorkerResult(
            worker_id=self.worker_id,
            clock_ms=self.now_ms,
            store_reads=store.reads,
            telemetry=telemetry,
            store_real_read_s=getattr(store, "real_read_s", 0.0),
        )


def shard_worker_main(conn: "Connection") -> None:
    """Entry point and whole life of one worker process (importable for spawn).

    Boot, report :class:`WorkerBooted`, then idle on the pipe: a
    :class:`ShardTask` builds the shard, every other message is answered
    by :meth:`ShardWorker.handle`; after :class:`EndTask` the shard is
    dropped and the worker is idle again.  The only quiet exit is the pipe
    closing under ``recv`` (the parent dropped or outlived the worker);
    whatever a task raises — an ``EOFError`` included — travels back as a
    :class:`WorkerFailure` and ends the process.
    """
    worker_id = -1
    shard: Optional[ShardWorker] = None
    try:
        conn.send(WorkerBooted())
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            if isinstance(message, ShardTask):
                worker_id = message.worker_id
                shard = ShardWorker.from_task(message)
            else:
                reply = shard.handle(message)
                if isinstance(message, EndTask):
                    # Drop the shard before acknowledging: its column blocks
                    # keep the store's map (and descriptor) open until freed.
                    shard = None
                conn.send(reply)
    except BaseException:
        try:
            conn.send(WorkerFailure(worker_id, traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# --------------------------------------------------------------------- #
# worker processes of this parent: boot, idle list, spare, teardown
# --------------------------------------------------------------------- #
#
# The idle list has two parts: workers a run released (booted, their
# :class:`WorkerBooted` already read) and at most one *spare* — a worker
# started ahead of need by :func:`keep_spare`, possibly still booting, its
# :class:`WorkerBooted` not yet read.  A reliability run keeps one idle
# worker beside its shards this way, so a crash recovery takes a booted
# (or half-booted) interpreter instead of waiting for a new one.

#: Booted workers no run is using, as ``(process, parent end of the pipe)``.
#: Each is blocked in ``recv`` with no shard and no open store.
_IDLE_WORKERS: List[Tuple["BaseProcess", "Connection"]] = []

#: The spare slot (empty or one entry): started by :func:`keep_spare`,
#: its ``WorkerBooted`` unread.
_SPARE: List[Tuple["BaseProcess", "Connection"]] = []


def boot_worker() -> Tuple["BaseProcess", "Connection"]:
    """Start one worker process; returns at once, the child boots on its own.

    The child gets nothing but its end of the pipe, so ``start()`` has a
    few hundred bytes to write and never waits for the interpreter — a
    caller that starts N workers has N interpreters booting concurrently.
    """
    context = multiprocessing.get_context("spawn")
    conn, child_conn = context.Pipe()
    process = context.Process(
        target=shard_worker_main, args=(child_conn,), daemon=True, name="liferaft-shard"
    )
    process.start()
    child_conn.close()
    return process, conn


def acquire_worker() -> Tuple["BaseProcess", "Connection", bool, bool]:
    """A worker for one shard, as ``(process, conn, reused, booting)``.

    A released idle worker when a live one is listed, else the spare (both
    ``reused``), else one started on the spot.  ``booting``: the caller
    has yet to read the worker's :class:`WorkerBooted` (the spare's and a
    fresh start's).  :class:`~repro.reliability.runtime.ProcessChannel`
    turns these into the run's ``coordinator.workers_*`` counters.

    An idle worker that died meanwhile (killed from outside) is dropped
    and replaced without a word.
    """
    while True:
        if _IDLE_WORKERS:
            (process, conn), booting = _IDLE_WORKERS.pop(), False
        elif _SPARE:
            (process, conn), booting = _SPARE.pop(), True
        else:
            return (*boot_worker(), False, True)
        if process.is_alive():
            return process, conn, True, booting
        conn.close()


def keep_spare() -> None:
    """Make sure one idle worker waits for the next acquisition.

    Starts the spare when the idle list is empty and returns at once: its
    boot overlaps the run's work instead of stalling the acquisition that
    will take it.
    """
    if not _IDLE_WORKERS and not _SPARE:
        _SPARE.append(boot_worker())


def release_worker(process: "BaseProcess", conn: "Connection") -> None:
    """Put a worker that acknowledged :class:`EndTask` on the idle list."""
    _IDLE_WORKERS.append((process, conn))


def destroy_worker(process: "BaseProcess", conn: "Connection") -> None:
    """Kill a worker and reap it; whatever state it held is gone."""
    process.kill()
    process.join(timeout=10.0)
    conn.close()


def trim_idle_workers(keep: int) -> None:
    """Destroy idle workers beyond *keep*: the spare first, then the
    least recently released."""
    if _SPARE and len(_IDLE_WORKERS) >= keep:
        destroy_worker(*_SPARE.pop())
    while len(_IDLE_WORKERS) > keep:
        destroy_worker(*_IDLE_WORKERS.pop(0))


def shutdown_workers() -> None:
    """Destroy every idle worker of this process, the spare included.

    Idle workers are daemonic, so interpreter exit releases them too;
    call this to have their memory back earlier (each is an imported
    interpreter, 25-40 MiB resident).
    """
    trim_idle_workers(0)
