"""The ``.lrcp`` checkpoint codec (LifeRaft CheckPoint).

LifeRaft's data-driven batching makes fault tolerance unusually cheap:
each shard worker is a *pure function of its admitted arrival schedule*
(the property the cross-backend parity tests pin down), so a checkpoint
never has to capture in-flight computation — only the queue-shaped state
at a window barrier.  A :class:`ShardCheckpoint` therefore carries:

* the shard's virtual clock and emitted-batch cursor (``seq``),
* the workload manager — bucket queues plus per-query bookkeeping,
* the not-yet-ingested staged arrivals,
* the scheduling policy instance (decision counters, adaptive state),
* the tier-1 cache image as a residency list (bucket indices in LRU
  order; the images themselves are re-materialised from the immutable
  store on restore) and the cache's lifetime counters,
* the accounting every report aggregates (busy/I/O/match totals,
  strategy counts, store read counters).

Restoring that state into a freshly built worker and replaying the
schedule tail reproduces the uninterrupted run bit for bit.

Every batch-record-derived artifact inherits crash parity from this
seam: the coordinator's accepted-``seq`` cursor keeps pre-crash records
exactly-once, the restored ``seq`` cursor makes the replayed tail
re-emit the lost ones bit-for-bit (cache residency included, so each
record's I/O split matches), and therefore downstream consumers — the
result streams, the span timeline and the per-query cost ledger
(:mod:`repro.telemetry.ledger`) — are identical between a crash-injected
recovery run and its uninterrupted twin.

The file envelope reuses the struct-pack + digest idioms of
:mod:`repro.storage.format`: a fixed header (magic ``LRCP``, version,
worker id, window index, clock) carrying the **store generation** the
state was captured over, a CRC over the header, and a CRC over the
pickled payload.  Corruption, truncation, version skew and generation
mismatch (the store was re-ingested under the checkpoint) all surface as
a clean :class:`CheckpointError` instead of a half-restored shard.
Writes go through a temp file + ``os.replace`` so a crash during
checkpointing can never leave a latest-checkpoint that readers trust.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple
from zlib import crc32

from repro.parallel.worker import ShardWorker, StagedShare

#: File magic: LifeRaft CheckPoint.
MAGIC = b"LRCP"
#: Current checkpoint format version.  Readers reject any other cleanly.
CHECKPOINT_VERSION = 1
#: Default file extension for checkpoint files.
CHECKPOINT_SUFFIX = ".lrcp"
#: ``worker_id`` of a run-level (coordinator) checkpoint.
RUN_CHECKPOINT_WORKER = -1

# magic, version, flags, worker_id, window_index, clock_ms, generation,
# payload_length, header_crc
_HEADER = struct.Struct("<4sHHiId16sQI")
_CRC = struct.Struct("<I")


class CheckpointError(RuntimeError):
    """Raised when a checkpoint file is malformed, corrupt or mismatched."""


@dataclass
class ShardCheckpoint:
    """Everything one shard needs to resume from a window barrier."""

    worker_id: int
    window_index: int
    clock_ms: float
    #: Batch records emitted before the barrier; replay resumes numbering
    #: here and the coordinator discards any record at or past it.
    seq: int
    steals: int
    staged: Tuple[StagedShare, ...]
    #: The workload manager, pickled wholesale (queues + query states).
    manager: object
    #: The scheduling policy instance (per-shard counters travel with it).
    policy: object
    #: Tier-1 cache residency, least to most recently used.
    cache_residency: Tuple[int, ...]
    cache_statistics: Dict[str, float]
    scan_services: int
    index_services: int
    busy_ms: float
    services: int
    last_completion_ms: float
    strategy_counts: Dict[str, int]
    total_io_ms: float
    total_match_ms: float
    total_matches: int
    store_reads: int
    store_megabytes: float
    #: The lane's metrics-registry snapshot (engine/cache counters).
    #: ``None`` in checkpoints written before telemetry existed; restore
    #: treats that as an empty registry.
    telemetry: Optional[dict] = None


@dataclass
class RunCheckpoint:
    """The coordinator's durable state at a global window barrier.

    The per-shard files capture everything each worker needs; this
    companion captures what only the coordinator knows — the cross-shard
    completion tracker and the per-worker emitted-record cursor (which is
    also the result streams' exactly-once chunk cursor, since chunks are
    derived from accepted batch records).
    """

    window_index: int
    #: The cross-shard :class:`~repro.parallel.engine.CompletionTracker`.
    tracker: object
    #: Per-worker count of batch records accepted so far.
    accepted_seq: Dict[int, int]


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


def _crc(payload: bytes) -> int:
    return crc32(payload) & 0xFFFFFFFF


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
    buffer = io.BytesIO()
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
    buffer.write(header)
    buffer.write(_CRC.pack(_crc(header)))
    buffer.write(payload)
    buffer.write(_CRC.pack(_crc(payload)))
    data = buffer.getvalue()
    temp_path = f"{path}.tmp"
    with open(temp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)
    return CheckpointInfo(
        path=path,
        worker_id=worker_id,
        window_index=window_index,
        clock_ms=clock_ms,
        seq=seq,
        byte_size=len(data),
        generation=generation,
    )


def read_checkpoint(
    path: str | os.PathLike, expected_generation: Optional[str] = None
) -> Tuple[object, CheckpointInfo]:
    """Read and validate an ``.lrcp`` file, returning ``(payload, info)``."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot open checkpoint {path!r}: {error}") from error
    if len(data) < _HEADER.size + _CRC.size:
        raise CheckpointError(f"checkpoint {path!r} is truncated (no header)")
    header = data[: _HEADER.size]
    (
        magic,
        version,
        _flags,
        worker_id,
        window_index,
        clock_ms,
        generation_bytes,
        payload_length,
        header_crc,
    ) = _HEADER.unpack(header)
    if magic != MAGIC:
        raise CheckpointError(
            f"{path!r} is not a LifeRaft checkpoint (bad magic {magic!r})"
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} "
            f"(reader supports {CHECKPOINT_VERSION})"
        )
    if _crc(header[: -_CRC.size]) != header_crc:
        raise CheckpointError(f"header checksum mismatch in {path!r}")
    generation = generation_bytes.decode("ascii")
    if expected_generation is not None and generation != expected_generation:
        raise CheckpointError(
            f"checkpoint {path!r} was captured over store generation "
            f"{generation}, but the current store is {expected_generation} "
            "(re-ingested since the checkpoint?)"
        )
    body = data[_HEADER.size :]
    if len(body) != payload_length + _CRC.size:
        raise CheckpointError(
            f"checkpoint {path!r} payload is truncated: expected "
            f"{payload_length} bytes, file holds {len(body) - _CRC.size}"
        )
    payload, crc_bytes = body[:payload_length], body[payload_length:]
    (payload_crc,) = _CRC.unpack(crc_bytes)
    if _crc(payload) != payload_crc:
        raise CheckpointError(f"payload checksum mismatch in {path!r}")
    try:
        payload_obj = pickle.loads(payload)
    except Exception as error:  # pickle raises many concrete types
        raise CheckpointError(
            f"checkpoint {path!r} payload does not deserialise: {error}"
        ) from error
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
# shard state capture / restore
# --------------------------------------------------------------------- #


def capture_shard(worker: ShardWorker, seq: int, window_index: int) -> ShardCheckpoint:
    """Capture one shard worker's resumable state at a window barrier.

    The returned object aliases live state (the manager, the policy);
    callers serialise it immediately — every call site writes the
    checkpoint file before the worker runs again.
    """
    loop = worker.loop
    store = loop.cache.store
    return ShardCheckpoint(
        worker_id=worker.worker_id,
        window_index=window_index,
        clock_ms=worker.now_ms,
        seq=seq,
        steals=worker.steals,
        staged=worker.staged_shares(),
        manager=loop.manager,
        policy=loop.scheduler,
        cache_residency=loop.cache.resident_buckets(),
        cache_statistics=loop.cache.statistics(),
        scan_services=loop.evaluator.scan_services,
        index_services=loop.evaluator.index_services,
        busy_ms=loop.busy_ms,
        services=loop.services,
        last_completion_ms=loop.last_completion_ms,
        strategy_counts=dict(loop.strategy_counts),
        total_io_ms=loop.total_io_ms,
        total_match_ms=loop.total_match_ms,
        total_matches=loop.total_matches,
        store_reads=store.reads,
        store_megabytes=store.bytes_read_mb,
        telemetry=loop.telemetry.snapshot(),
    )


def restore_shard(worker: ShardWorker, state: ShardCheckpoint) -> None:
    """Overlay a checkpointed state onto a freshly built shard worker.

    The worker must have been constructed from the same task (same store
    snapshot, same config) that produced the checkpoint; after this call
    its timeline resumes at the barrier exactly as the uninterrupted run
    would have continued.  The batch *history* is not restored — only its
    aggregates — so recovered workers stay lean; the coordinator already
    holds every accepted record.
    """
    if state.worker_id != worker.worker_id:
        raise CheckpointError(
            f"checkpoint belongs to worker {state.worker_id}, "
            f"cannot restore into worker {worker.worker_id}"
        )
    loop = worker.loop
    loop.manager = state.manager
    loop.scheduler = state.policy
    loop.batches = []
    loop.services = state.services
    loop.busy_ms = state.busy_ms
    loop.last_completion_ms = state.last_completion_ms
    loop.strategy_counts = dict(state.strategy_counts)
    loop.total_io_ms = state.total_io_ms
    loop.total_match_ms = state.total_match_ms
    loop.total_matches = state.total_matches
    loop.evaluator.scan_services = state.scan_services
    loop.evaluator.index_services = state.index_services
    loop.cache.restore(state.cache_residency, state.cache_statistics)
    store = loop.cache.store
    store.reads = state.store_reads
    store.bytes_read_mb = state.store_megabytes
    # In-place restore: the loop's (and cache's) pre-resolved metric
    # handles keep pointing at the live objects, so replayed services
    # continue counting from the barrier's totals.
    loop.telemetry.restore(getattr(state, "telemetry", None))
    worker.now_ms = state.clock_ms
    worker.steals = state.steals
    worker.restore_staged(state.staged)


def checkpoint_worker(
    path: str | os.PathLike,
    worker: ShardWorker,
    seq: int,
    window_index: int,
) -> CheckpointInfo:
    """Capture *worker*'s state and write it as one ``.lrcp`` file."""
    state = capture_shard(worker, seq, window_index)
    generation = worker.loop.cache.store.generation
    return write_checkpoint(
        path,
        worker_id=worker.worker_id,
        window_index=window_index,
        clock_ms=worker.now_ms,
        generation=generation,
        payload_obj=state,
        seq=seq,
    )


def restore_worker(
    path: str | os.PathLike,
    worker: ShardWorker,
    expected_generation: Optional[str] = None,
) -> ShardCheckpoint:
    """Read an ``.lrcp`` file and restore *worker* from it."""
    state, _info = read_checkpoint(path, expected_generation=expected_generation)
    if not isinstance(state, ShardCheckpoint):
        raise CheckpointError(
            f"{os.fspath(path)!r} holds a {type(state).__name__}, "
            "not a shard checkpoint"
        )
    restore_shard(worker, state)
    return state


__all__ = [
    "CHECKPOINT_SUFFIX",
    "CHECKPOINT_VERSION",
    "MAGIC",
    "RUN_CHECKPOINT_WORKER",
    "CheckpointError",
    "CheckpointInfo",
    "RunCheckpoint",
    "ShardCheckpoint",
    "capture_shard",
    "checkpoint_worker",
    "read_checkpoint",
    "restore_shard",
    "restore_worker",
    "write_checkpoint",
]
