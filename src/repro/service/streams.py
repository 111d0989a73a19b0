"""Incremental result streams: partial answers as buckets drain.

A cross-match answer is the union of per-bucket sub-query results, so it
accrues incrementally: every time a bucket a query needs is serviced, the
query's answer grows by that bucket's matches.  The serving layer turns
that property into a first-class interface — a :class:`ResultStream` per
query that emits one :class:`ResultChunk` per drained bucket, carrying the
progress fraction, the drained object count and the virtual timestamp.
Time-to-first-result (the stream's first chunk) becomes a measured
quantity alongside time-to-completion (its final chunk).

The :class:`StreamHub` is the single chunk-derivation rule every execution
path shares.  The serial engine feeds it live, one
:class:`~repro.core.engine.BatchResult` at a time; the execution backends
feed it the :class:`~repro.parallel.ipc.BatchRecord` stream their shard
workers emitted (for the process backend those records literally rode the
IPC pipe).  That log is kept in global finish order by the backend, so
the chunks of one query are non-decreasing in virtual time on every
backend — the serving parity tests pin this down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

__all__ = ["ResultChunk", "ResultStream", "StreamHub"]


@dataclass(frozen=True)
class ResultChunk:
    """One partial-answer increment of one query's result stream."""

    query_id: int
    #: 0-based position of the chunk within its query's stream.
    seq: int
    #: Bucket whose service produced this increment.
    bucket_index: int
    #: The query's objects cross-matched by this service.
    objects_matched: int
    #: Buckets drained so far divided by buckets needed (ends at 1.0).
    progress: float
    #: Virtual timestamp of the service completion that emitted the chunk.
    time_ms: float
    #: ``True`` on the chunk that completes the query.
    final: bool


class ResultStream:
    """The incremental answer of one query, as an ordered chunk sequence."""

    def __init__(self, query_id: int, needed_buckets: Iterable[int], arrival_ms: float) -> None:
        self.query_id = query_id
        self.arrival_ms = arrival_ms
        self._needed: Set[int] = set(needed_buckets)
        if not self._needed:
            raise ValueError(f"query {query_id} needs at least one bucket to stream")
        self.total_buckets = len(self._needed)
        self.chunks: List[ResultChunk] = []

    @property
    def is_complete(self) -> bool:
        """``True`` once every needed bucket has produced a chunk."""
        return not self._needed

    @property
    def progress(self) -> float:
        """Fraction of the query's buckets drained so far."""
        return (self.total_buckets - len(self._needed)) / self.total_buckets

    @property
    def first_chunk_ms(self) -> Optional[float]:
        """Virtual time of the first partial answer, or ``None`` before it."""
        if not self.chunks:
            return None
        return self.chunks[0].time_ms

    @property
    def completion_ms(self) -> Optional[float]:
        """Virtual time of the final chunk, or ``None`` while streaming."""
        if not self.chunks or not self.chunks[-1].final:
            return None
        return self.chunks[-1].time_ms

    @property
    def time_to_first_result_ms(self) -> Optional[float]:
        """Client-perceived latency of the first partial answer."""
        first = self.first_chunk_ms
        if first is None:
            return None
        return first - self.arrival_ms

    @property
    def time_to_completion_ms(self) -> Optional[float]:
        """Client-perceived latency of the full answer."""
        done = self.completion_ms
        if done is None:
            return None
        return done - self.arrival_ms

    def emit(self, bucket_index: int, objects: int, time_ms: float) -> Optional[ResultChunk]:
        """Record one drained bucket; returns the chunk, or ``None`` when
        the bucket is not (or no longer) needed by this query."""
        if bucket_index not in self._needed:
            return None
        self._needed.discard(bucket_index)
        chunk = ResultChunk(
            query_id=self.query_id,
            seq=len(self.chunks),
            bucket_index=bucket_index,
            objects_matched=objects,
            progress=self.progress,
            time_ms=time_ms,
            final=self.is_complete,
        )
        self.chunks.append(chunk)
        return chunk


class StreamHub:
    """All live result streams of one serving run, fed by service records.

    The hub is execution-agnostic: anything that can say "this service
    drained these objects of these queries from this bucket at this
    virtual time" can feed it.  Subscribers (the serving demo, tests)
    receive every chunk in emission order.
    """

    def __init__(self) -> None:
        self._streams: Dict[int, ResultStream] = {}
        self._subscribers: List[Callable[[ResultChunk], None]] = []
        self.total_chunks = 0

    def register(self, query_id: int, needed_buckets: Iterable[int], arrival_ms: float) -> None:
        """Open the stream of one admitted query."""
        if query_id in self._streams:
            raise ValueError(f"query {query_id} already has a result stream")
        self._streams[query_id] = ResultStream(query_id, needed_buckets, arrival_ms)

    def subscribe(self, callback: Callable[[ResultChunk], None]) -> None:
        """Invoke *callback* for every chunk emitted from now on."""
        self._subscribers.append(callback)

    def streams(self) -> List[ResultStream]:
        """Every registered stream, by query id."""
        return [self._streams[qid] for qid in sorted(self._streams)]

    def open_stream_count(self) -> int:
        """Streams registered but not yet complete (serving occupancy).

        The live wall-clock sampler reads this per tick; it is O(streams)
        but serving runs hold at most the admitted-query count of streams.
        """
        return sum(1 for stream in self._streams.values() if not stream.is_complete)

    def on_service(
        self,
        bucket_index: int,
        queries_served: Sequence[int],
        objects_served: Sequence[int],
        time_ms: float,
    ) -> List[ResultChunk]:
        """Fan one bucket service out to the streams it advances.

        *objects_served* may be empty (older records without per-query
        counts); chunks then report zero objects but correct progress.
        """
        chunks: List[ResultChunk] = []
        counts = dict(zip(queries_served, objects_served))
        for query_id in queries_served:
            stream = self._streams.get(query_id)
            if stream is None:
                continue
            chunk = stream.emit(bucket_index, counts.get(query_id, 0), time_ms)
            if chunk is None:
                continue
            chunks.append(chunk)
            self.total_chunks += 1
            for callback in self._subscribers:
                callback(chunk)
        return chunks

    def ingest_records(self, records: Iterable) -> int:
        """Feed a whole run's service records, in the order given.

        Accepts anything shaped like :class:`~repro.parallel.ipc.BatchRecord`
        (``bucket_index`` / ``queries_served`` / ``objects_served`` /
        ``finished_at_ms``).  A backend's service log
        (:attr:`~repro.parallel.backend.BackendOutcome.services`) is already
        in global finish order, so every per-query chunk sequence is
        non-decreasing in virtual time even when services of different
        shard workers overlap.
        """
        emitted = 0
        for record in records:
            emitted += len(
                self.on_service(
                    record.bucket_index,
                    record.queries_served,
                    record.objects_served,
                    record.finished_at_ms,
                )
            )
        return emitted

    def completed_queries(self) -> List[int]:
        """Queries whose stream has emitted its final chunk, by id."""
        return [qid for qid, stream in sorted(self._streams.items()) if stream.is_complete]

    def time_to_first_result_s(self) -> List[float]:
        """TTFR of every stream that produced at least one chunk, in seconds."""
        values = [
            stream.time_to_first_result_ms
            for stream in self._streams.values()
            if stream.first_chunk_ms is not None
        ]
        return [ms / 1000.0 for ms in sorted(values)]

    def time_to_completion_s(self) -> List[float]:
        """Client-perceived completion latency of every finished stream."""
        values = [
            stream.time_to_completion_ms
            for stream in self._streams.values()
            if stream.completion_ms is not None
        ]
        return [ms / 1000.0 for ms in sorted(values)]
