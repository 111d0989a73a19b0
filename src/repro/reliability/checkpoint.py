"""The ``.lrcp`` checkpoint codec (LifeRaft CheckPoint).

LifeRaft's data-driven batching makes fault tolerance unusually cheap:
each shard is a *pure function of its admitted arrival schedule*
(the property the cross-backend parity tests pin down), so a checkpoint
never has to capture in-flight computation — only the queue-shaped state
at a window barrier, and of that only what the restoring shard cannot
rebuild from its own task.  A :class:`ShardCheckpoint` therefore carries:

* the shard's virtual clock and emitted-batch cursor (``seq``),
* the workload manager — bucket queues plus per-query bookkeeping, a
  finished query's as one row of five plain columns (see
  :class:`~repro.core.workload_manager.WorkloadManager`),
* the not-yet-ingested stage: only its length while it is still a suffix
  of the shard's own arrival schedule (the restoring task holds those
  shares), the shares themselves once a migration changed it,
* the scheduling policy instance (decision counters, adaptive state),
* the tier-1 cache image as a residency list (bucket indices in LRU
  order; the images themselves are re-materialised from the immutable
  store on restore) and the cache's lifetime counters,
* the store's read counters,
* the lane's metrics-registry snapshot — the one record of the totals
  every report reads (services, busy/I/O/match cost, strategy counts,
  cache hits); nothing else in the checkpoint copies them.

A shard (:class:`repro.parallel.ipc.ShardWorker`) is checkpointed by one
write, :func:`checkpoint_shard`, and restored by one read,
:func:`restore_shard`.  Restoring into a shard freshly built from the
same task and replaying the schedule tail reproduces the uninterrupted
run bit for bit.  Shard files are the only ``.lrcp`` files a run writes:
the coordinator's state (completion tracker, accepted-record cursors,
steal journal) stays in its memory, which is all a shard recovery needs
beside the shard's own file.

Every batch-record-derived artifact inherits crash parity from this
seam: the coordinator's accepted-``seq`` cursor keeps pre-crash records
exactly-once, the restored ``seq`` cursor makes the replayed tail
re-emit the lost ones bit-for-bit (cache residency included, so each
record's I/O split matches), and therefore downstream consumers — the
result streams, the span timeline and the per-query cost ledger
(:mod:`repro.telemetry.ledger`) — are identical between a crash-injected
recovery run and its uninterrupted twin.

The file is a fixed header (magic ``LRCP``, version, worker id, window
index, clock) carrying the **store generation** the state was captured
over, a CRC over the header, the pickled payload and a CRC over it.  It
is framed, published (atomically, and the only fsynced LifeRaft file)
and rejected through :mod:`repro.fileio`; a generation mismatch (the
store was re-ingested under the checkpoint) is one more
:class:`~repro.fileio.FormatError` instead of a half-restored shard.
"""

from __future__ import annotations

import os
import pickle
import struct
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.fileio import FormatError, atomic_write, check_crc, crc32, read_file, unpack_header
from repro.parallel.worker import StagedShare

if TYPE_CHECKING:
    from repro.parallel.ipc import ShardWorker

#: File magic: LifeRaft CheckPoint.
MAGIC = b"LRCP"
#: Current checkpoint format version.  Readers reject any other cleanly.
CHECKPOINT_VERSION = 1
#: Default file extension for checkpoint files.
CHECKPOINT_SUFFIX = ".lrcp"

# magic, version, flags, worker_id, window_index, clock_ms, generation,
# payload_length, header_crc
_HEADER = struct.Struct("<4sHHiId16sQI")
_CRC = struct.Struct("<I")


@dataclass
class ShardCheckpoint:
    """Everything one shard needs to resume from a window barrier."""

    worker_id: int
    window_index: int
    clock_ms: float
    #: Batch records emitted before the barrier; replay resumes numbering
    #: here and the coordinator discards any record at or past it.
    seq: int
    #: The not-yet-ingested stage: its length while it is a suffix of the
    #: shard's own arrival schedule (restore takes that suffix of the
    #: task's arrivals), else the staged shares themselves.
    staged: Union[int, Tuple[StagedShare, ...]]
    #: The workload manager: queues, open query states, finished queries
    #: as columns.
    manager: object
    #: The scheduling policy instance (per-shard counters travel with it).
    policy: object
    #: Tier-1 cache residency, least to most recently used.
    cache_residency: Tuple[int, ...]
    cache_statistics: Dict[str, float]
    store_reads: int
    store_megabytes: float
    #: The lane's metrics-registry snapshot: the one record of the lane's
    #: totals (services, busy/I/O/match cost, strategy counts, cache hits).
    telemetry: dict


@dataclass(frozen=True)
class CheckpointInfo:
    """Summary of one written checkpoint file."""

    path: str
    worker_id: int
    window_index: int
    clock_ms: float
    seq: int
    byte_size: int
    generation: str


def _encode_generation(generation: str) -> bytes:
    encoded = generation.encode("ascii")
    if len(encoded) != 16:
        raise ValueError(
            f"store generations are 16 ascii characters, got {generation!r}"
        )
    return encoded


def write_checkpoint(
    path: str | os.PathLike,
    worker_id: int,
    window_index: int,
    clock_ms: float,
    generation: str,
    payload_obj: object,
    seq: int = 0,
) -> CheckpointInfo:
    """Serialise *payload_obj* into an ``.lrcp`` file at *path*.

    The write is atomic (temp file + rename): readers either see the
    previous checkpoint or the complete new one, never a torn file.
    """
    path = os.fspath(path)
    payload = pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(
        MAGIC,
        CHECKPOINT_VERSION,
        0,
        worker_id,
        window_index,
        clock_ms,
        _encode_generation(generation),
        len(payload),
        0,
    )[: -_CRC.size]
    byte_size = atomic_write(
        path,
        header,
        _CRC.pack(crc32(header)),
        payload,
        _CRC.pack(crc32(payload)),
        fsync=True,
    )
    return CheckpointInfo(
        path=path,
        worker_id=worker_id,
        window_index=window_index,
        clock_ms=clock_ms,
        seq=seq,
        byte_size=byte_size,
        generation=generation,
    )


def read_checkpoint(
    path: str | os.PathLike, expected_generation: Optional[str] = None
) -> Tuple[object, CheckpointInfo]:
    """Read and validate an ``.lrcp`` file, returning ``(payload, info)``."""
    path = os.fspath(path)
    what = f"checkpoint {path!r}"
    data = read_file(path, what)
    _, _, _, worker_id, window_index, clock_ms, generation_bytes, payload_length, header_crc = (
        unpack_header(data, _HEADER, MAGIC, CHECKPOINT_VERSION, what)
    )
    check_crc(data[: _HEADER.size - _CRC.size], header_crc, f"{what} header")
    generation = generation_bytes.decode("ascii")
    if expected_generation is not None and generation != expected_generation:
        raise FormatError(
            f"{what} was captured over store generation "
            f"{generation}, but the current store is {expected_generation} "
            "(re-ingested since the checkpoint?)"
        )
    body = data[_HEADER.size :]
    if len(body) != payload_length + _CRC.size:
        raise FormatError(
            f"{what} is truncated: expected {payload_length} payload bytes, "
            f"file holds {len(body) - _CRC.size}"
        )
    payload = body[:payload_length]
    (payload_crc,) = _CRC.unpack_from(body, payload_length)
    check_crc(payload, payload_crc, f"{what} payload")
    try:
        payload_obj = pickle.loads(payload)
    except Exception as error:  # pickle raises many concrete types
        raise FormatError(f"{what} payload does not deserialise: {error}") from error
    seq = getattr(payload_obj, "seq", 0)
    info = CheckpointInfo(
        path=path,
        worker_id=worker_id,
        window_index=window_index,
        clock_ms=clock_ms,
        seq=seq,
        byte_size=len(data),
        generation=generation,
    )
    return payload_obj, info


# --------------------------------------------------------------------- #
# one shard's state: one write, one read
# --------------------------------------------------------------------- #


def checkpoint_shard(
    path: str | os.PathLike, shard: ShardWorker, window_index: int
) -> CheckpointInfo:
    """Capture *shard*'s resumable state at a window barrier into one
    ``.lrcp`` file at *path*.

    The captured state aliases live objects (the manager, the policy), so
    it is serialised here, before the shard runs again.
    """
    loop = shard.loop
    store = loop.cache.store
    state = ShardCheckpoint(
        worker_id=shard.worker_id,
        window_index=window_index,
        clock_ms=shard.now_ms,
        seq=shard.seq,
        staged=len(shard.staged) if shard.stage_is_own else tuple(shard.staged),
        manager=loop.manager,
        policy=loop.scheduler,
        cache_residency=loop.cache.resident_buckets(),
        cache_statistics=loop.cache.statistics(),
        store_reads=store.reads,
        store_megabytes=store.bytes_read_mb,
        telemetry=loop.telemetry.snapshot(),
    )
    return write_checkpoint(
        path,
        worker_id=shard.worker_id,
        window_index=window_index,
        clock_ms=shard.now_ms,
        generation=store.generation,
        payload_obj=state,
        seq=shard.seq,
    )


def restore_shard(
    path: str | os.PathLike,
    shard: ShardWorker,
    expected_generation: Optional[str] = None,
) -> ShardCheckpoint:
    """Read an ``.lrcp`` file and overlay its state onto a freshly built shard.

    The shard must have been built from the same task (same store
    snapshot, same config) that produced the checkpoint; after this call
    its timeline — clock, stage and batch cursor included — resumes at the
    barrier exactly as the uninterrupted run would have continued.  A stage
    stored as a length is that suffix of the fresh shard's stage (its
    task's arrivals).  The batch *history* is not restored — only the lane
    snapshot that totals it — so recovered shards stay lean; the
    coordinator already holds every accepted record.  Fields a checkpoint
    of an older build carries beyond these are ignored.
    """
    state, _info = read_checkpoint(path, expected_generation=expected_generation)
    if not isinstance(state, ShardCheckpoint):
        raise FormatError(
            f"{os.fspath(path)!r} holds a {type(state).__name__}, "
            "not a shard checkpoint"
        )
    if state.worker_id != shard.worker_id:
        raise FormatError(
            f"checkpoint belongs to worker {state.worker_id}, "
            f"cannot restore into worker {shard.worker_id}"
        )
    stage_is_own = isinstance(state.staged, int)
    if stage_is_own and state.staged > len(shard.staged):
        raise FormatError(
            f"checkpoint stages {state.staged} arrivals; the shard's "
            f"schedule has only {len(shard.staged)}"
        )
    loop = shard.loop
    loop.manager = state.manager
    loop.scheduler = state.policy
    loop.batches = []
    loop.cache.restore(state.cache_residency, state.cache_statistics)
    store = loop.cache.store
    store.reads = state.store_reads
    store.bytes_read_mb = state.store_megabytes
    # In-place restore: the loop's (and cache's) pre-resolved metric
    # handles keep pointing at the live objects, so replayed services
    # continue counting from the barrier's totals.
    loop.telemetry.restore(state.telemetry)
    shard.now_ms = state.clock_ms
    shard.stage_is_own = stage_is_own
    if stage_is_own:
        # The fresh shard's stage is its whole arrival schedule.
        shard.staged = deque(islice(shard.staged, len(shard.staged) - state.staged, None))
    else:
        shard.staged = deque(state.staged)
    shard.seq = state.seq
    return state


__all__ = [
    "CHECKPOINT_SUFFIX",
    "CHECKPOINT_VERSION",
    "MAGIC",
    "CheckpointInfo",
    "ShardCheckpoint",
    "checkpoint_shard",
    "read_checkpoint",
    "restore_shard",
    "write_checkpoint",
]
