"""The shard message protocol, and the worker processes that can carry it.

A small synchronous message protocol driven by the channel coordinator
(:class:`repro.reliability.runtime.ShardCoordinator`), answered by one
function (:meth:`ShardReplayer.handle`) wherever the shard lives: beside
the coordinator (the virtual backend's inline channel) or in an OS
process of its own behind a duplex pipe (the process backend).  A worker
process has one lifecycle (:func:`shard_worker_main`): *boot → idle → serve a
task → idle … → exit when the pipe closes*.  It is started with nothing
but its end of the pipe, so N of them boot concurrently, and a run that
ends normally hands its workers to this module's idle list
(:func:`release_worker`), from which the next run in the same parent
draws (:func:`acquire_worker`) before booting anything:

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
* :class:`Finalize` collects the shard's aggregate accounting as a
  :class:`WorkerResult`;
* :class:`CaptureCheckpoint` has the child write its resumable state as a
  ``.lrcp`` file (see :mod:`repro.reliability.checkpoint`); a respawned
  child restores from :attr:`ShardTask.checkpoint_path` and resumes its
  batch numbering at the checkpoint's cursor;
* :class:`EndTask` closes the run: the shard closes its store; a worker
  process then drops the shard and is idle again.

Everything the protocol ships must pickle under the ``spawn`` start
method; the replay logic and the message dispatch are plain in-process
code, so the worker process and the inline channel answer every message
through the very same function.  The replayer's local rule — deliver
arrivals at or before the clock, jump an idle worker to its next arrival,
service at the clock — makes a shard's timeline a pure function of the
messages it received, so both backends are bit-for-bit identical,
stealing included (the cross-backend parity tests pin this down).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.engine import EngineConfig
from repro.core.scheduler import SchedulingPolicy
from repro.core.workload_manager import WorkloadEntry
from repro.parallel.worker import ShardWorker, StagedShare, build_shard_worker
from repro.storage.bucket_store import BucketStore, StoreSnapshot
from repro.storage.index import SpatialIndex

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess


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
    index: Optional[SpatialIndex]
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
    """Request the shard's final accounting."""


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
    """Final per-shard accounting, merged by the coordinator."""

    worker_id: int
    clock_ms: float
    busy_ms: float
    services: int
    steals: int
    total_io_ms: float
    total_match_ms: float
    total_matches: int
    strategy_counts: Dict[str, int]
    cache_statistics: Dict[str, float]
    join_statistics: Dict[str, float]
    store_reads: int
    store_megabytes: float
    #: File-backed stores only: this shard's physical read + decode time.
    store_real_read_s: float = 0.0
    #: The lane's telemetry snapshot (a plain picklable dict; see
    #: :mod:`repro.telemetry.registry`).  Merged order-insensitively by
    #: the coordinator.  ``None`` when the producer predates telemetry.
    telemetry: Optional[dict] = None


@dataclass(frozen=True)
class WorkerFailure:
    """A worker process died; carries the formatted traceback."""

    worker_id: int
    traceback_text: str


# --------------------------------------------------------------------- #
# the shard replayer (the same object in a worker process and in-process)
# --------------------------------------------------------------------- #


class ShardReplayer:
    """Replays one shard's staged arrival schedule on its own timeline.

    The loop is the serial replay rule on one shard: ingest every share
    whose arrival time the clock has reached, service at the clock while
    work is pending, and jump an idle worker forward to its next arrival.
    ``advance(until_ms)`` stops before any service or jump that would
    start at or past the boundary, so window boundaries pause the
    timeline without altering it.
    """

    def __init__(self, worker: ShardWorker, start_seq: int = 0) -> None:
        self.worker = worker
        #: Next batch sequence number.  A recovered shard resumes at its
        #: checkpoint's cursor so replayed records carry the same numbers
        #: the lost originals did.
        self.seq = start_seq

    @classmethod
    def from_task(cls, task: ShardTask) -> "ShardReplayer":
        """Rebuild a shard from its pickled task (child-side setup).

        The layout comes from the restored store, not the snapshot
        directly: path-based snapshots carry no layout (the store file
        does), and the in-memory variant restores the same object either
        way.  With :attr:`ShardTask.checkpoint_path` set the shard is then
        restored from that checkpoint and resumes emitting batch records at
        its cursor; the checkpoint is generation-bound — restoring against
        a store that was re-ingested since the capture fails cleanly.
        """
        store = BucketStore.from_snapshot(task.snapshot)
        worker = build_shard_worker(
            task.worker_id, store.layout, store, task.policy, task.config, index=task.index
        )
        for share in task.arrivals:
            worker.stage(share)
        if task.checkpoint_path is None:
            return cls(worker)
        from repro.reliability.checkpoint import restore_worker

        state = restore_worker(task.checkpoint_path, worker, expected_generation=store.generation)
        return cls(worker, start_seq=state.seq)

    def close(self) -> None:
        """Release the shard's private store (its file and page cache)."""
        self.worker.loop.cache.store.close()

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
            return Ack(self.worker.worker_id)
        if isinstance(message, CaptureCheckpoint):
            return self.capture_checkpoint(message)
        if isinstance(message, Finalize):
            return worker_result(self.worker)
        if isinstance(message, EndTask):
            self.close()
            return Ack(self.worker.worker_id)
        raise TypeError(f"unexpected coordinator message: {message!r}")

    def advance(self, until_ms: Optional[float]) -> List[BatchRecord]:
        """Run services starting before *until_ms* (``None`` = drain all)."""
        worker = self.worker
        records: List[BatchRecord] = []
        while True:
            worker.ingest_due()
            if worker.has_pending_work():
                if until_ms is not None and worker.now_ms >= until_ms:
                    break
                result = worker.service_next()
                if result is None:  # defensive: scheduler refused pending work
                    break
                records.append(
                    BatchRecord(
                        worker_id=worker.worker_id,
                        seq=self.seq,
                        bucket_index=result.work_item.bucket_index,
                        queries_served=result.queries_served,
                        started_at_ms=result.started_at_ms,
                        finished_at_ms=result.finished_at_ms,
                        objects_served=result.objects_served,
                        io_ms=result.join.io_cost_ms,
                        match_ms=result.join.match_cost_ms,
                    )
                )
                self.seq += 1
            else:
                staged = worker.next_staged_ms()
                if staged is None:
                    break
                if until_ms is not None and staged >= until_ms:
                    break
                worker.jump_to(staged)
        return records

    def window_report(self, batches: List[BatchRecord]) -> WindowReport:
        """Summarise the shard's state at the current boundary."""
        worker = self.worker
        pending: List[BucketQueueMeta] = []
        for bucket_index in worker.pending_buckets():
            queue = worker.manager.queue(bucket_index)
            enqueue_times = [entry.enqueue_time_ms for entry in queue.entries]
            pending.append(
                BucketQueueMeta(
                    bucket_index=bucket_index,
                    entry_count=len(queue.entries),
                    oldest_enqueue_ms=min(enqueue_times),
                    newest_enqueue_ms=max(enqueue_times),
                )
            )
        pending.sort(key=lambda meta: meta.bucket_index)
        return WindowReport(
            worker_id=worker.worker_id,
            clock_ms=worker.now_ms,
            drained=not worker.has_pending_work() and not worker.has_staged(),
            pending=tuple(pending),
            batches=tuple(batches),
            next_staged_ms=worker.next_staged_ms(),
        )

    def release(self, bucket_index: int) -> ReleasedBucket:
        """Give up one whole workload queue plus its staged future."""
        worker = self.worker
        entries = worker.manager.release_bucket(bucket_index)
        staged = worker.extract_staged(bucket_index)
        return ReleasedBucket(
            worker_id=worker.worker_id,
            bucket_index=bucket_index,
            entries=tuple(entries),
            staged=tuple(staged),
            clock_ms=worker.now_ms,
            next_staged_ms=worker.next_staged_ms(),
        )

    def release_all(self) -> ReleasedAll:
        """Evacuate every queue — pending *and* staged — for scale-down.

        Buckets are released in index order so the migration schedule is
        deterministic regardless of internal dict ordering.
        """
        worker = self.worker
        buckets = sorted(
            set(worker.pending_buckets())
            | {share.bucket_index for share in worker.staged_shares()}
        )
        released = tuple(self.release(bucket_index) for bucket_index in buckets)
        return ReleasedAll(worker_id=worker.worker_id, buckets=released)

    def adopt(self, message: AdoptBucket) -> None:
        """Take ownership of a migrated queue, starting it at the steal time."""
        worker = self.worker
        worker.manager.adopt_bucket(message.bucket_index, list(message.entries))
        worker.stage_merged(message.staged)
        worker.now_ms = max(worker.now_ms, message.clock_ms)
        worker.steals += 1

    def capture_checkpoint(self, message: CaptureCheckpoint) -> CheckpointWritten:
        """Write the shard's resumable state at the current barrier."""
        from repro.reliability.checkpoint import checkpoint_worker

        started = time.perf_counter()
        info = checkpoint_worker(message.path, self.worker, self.seq, message.window_index)
        return CheckpointWritten(
            worker_id=self.worker.worker_id,
            window_index=message.window_index,
            clock_ms=self.worker.now_ms,
            seq=self.seq,
            byte_size=info.byte_size,
            real_elapsed_s=time.perf_counter() - started,
        )


def worker_result(worker: ShardWorker) -> WorkerResult:
    """Collect one shard's final accounting for the coordinator.

    Every shard owns a private store rebuilt from the run's snapshot, so
    the store's real-domain registry rides along in the lane snapshot.
    """
    loop = worker.loop
    store = loop.cache.store
    telemetry = loop.telemetry.snapshot()
    store_registry = getattr(store, "telemetry", None)
    if store_registry is not None:
        from repro.telemetry.registry import merge_snapshots

        telemetry = merge_snapshots([telemetry, store_registry.snapshot()])
    return WorkerResult(
        worker_id=worker.worker_id,
        clock_ms=worker.now_ms,
        busy_ms=loop.busy_ms,
        services=loop.services,
        steals=worker.steals,
        total_io_ms=loop.total_io_ms,
        total_match_ms=loop.total_match_ms,
        total_matches=loop.total_matches,
        strategy_counts=dict(loop.strategy_counts),
        cache_statistics=loop.cache.statistics(),
        join_statistics=loop.evaluator.statistics(),
        store_reads=store.reads,
        store_megabytes=store.bytes_read_mb,
        store_real_read_s=getattr(store, "real_read_s", 0.0),
        telemetry=telemetry,
    )


def shard_worker_main(conn: "Connection") -> None:
    """Entry point and whole life of one worker process (importable for spawn).

    Boot, report :class:`WorkerBooted`, then idle on the pipe: a
    :class:`ShardTask` builds the shard, every other message is answered
    by :meth:`ShardReplayer.handle`; after :class:`EndTask` the shard is
    dropped and the worker is idle again.  The only quiet exit is the pipe
    closing under ``recv`` (the parent dropped or outlived the worker);
    whatever a task raises — an ``EOFError`` included — travels back as a
    :class:`WorkerFailure` and ends the process.
    """
    worker_id = -1
    replayer: Optional[ShardReplayer] = None
    try:
        conn.send(WorkerBooted())
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            if isinstance(message, ShardTask):
                worker_id = message.worker_id
                replayer = ShardReplayer.from_task(message)
            else:
                reply = replayer.handle(message)
                if isinstance(message, EndTask):
                    # Drop the shard before acknowledging: its column blocks
                    # keep the store's map (and descriptor) open until freed.
                    replayer = None
                conn.send(reply)
    except BaseException:
        try:
            conn.send(WorkerFailure(worker_id, traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# --------------------------------------------------------------------- #
# worker processes of this parent: boot, idle list, teardown
# --------------------------------------------------------------------- #

#: Booted workers no run is using, as ``(process, parent end of the pipe)``.
#: Each is blocked in ``recv`` with no shard and no open store.
_IDLE_WORKERS: List[Tuple["BaseProcess", "Connection"]] = []


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


def acquire_worker() -> Tuple["BaseProcess", "Connection", bool]:
    """A worker for one shard: an idle one when a live one is listed
    (``True``), else a freshly started one (``False``).

    An idle worker that died meanwhile (killed from outside) is dropped
    and replaced without a word.
    """
    while True:
        try:
            process, conn = _IDLE_WORKERS.pop()
        except IndexError:
            return (*boot_worker(), False)
        if process.is_alive():
            return process, conn, True
        conn.close()


def release_worker(process: "BaseProcess", conn: "Connection") -> None:
    """Put a worker that acknowledged :class:`EndTask` on the idle list."""
    _IDLE_WORKERS.append((process, conn))


def destroy_worker(process: "BaseProcess", conn: "Connection") -> None:
    """Kill a worker and reap it; whatever state it held is gone."""
    process.kill()
    process.join(timeout=10.0)
    conn.close()


def trim_idle_workers(keep: int) -> None:
    """Destroy idle workers beyond the *keep* most recently released."""
    while len(_IDLE_WORKERS) > keep:
        destroy_worker(*_IDLE_WORKERS.pop(0))


def shutdown_workers() -> None:
    """Destroy every idle worker of this process.

    Idle workers are daemonic, so interpreter exit releases them too;
    call this to have their memory back earlier (each is an imported
    interpreter, 25-40 MiB resident).
    """
    trim_idle_workers(0)
