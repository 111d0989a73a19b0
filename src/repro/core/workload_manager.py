"""The Workload Manager: per-bucket workload queues and query bookkeeping.

In the LifeRaft architecture (§4) the Workload Manager "maintains state
information such as a mapping of pending queries to workload queues and the
age of the oldest query in each queue".  Concretely it owns:

* one :class:`WorkloadQueue` per bucket with pending work, each holding the
  :class:`WorkloadEntry` contributed by every query that overlaps the
  bucket (the paper's ``W_i^j``);
* per-query bookkeeping: which buckets a query still needs, its arrival
  time and completion time, so the engine knows when a query finishes
  ("a query cannot finish until every object is cross-matched", §3.3).

The manager is deliberately policy-free: schedulers read its state (queue
sizes, oldest ages) and the engine mutates it (enqueue on arrival, drain on
service).  Every queue's size and oldest-request age are maintained
incrementally, and so is the **scheduling index** over them (see
:class:`WorkloadManager`): a scheduling decision reads a handful of index
entries instead of rescoring every pending bucket.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.workload.query import CrossMatchObject


@dataclass(slots=True)
class WorkloadEntry:
    """The work one query contributes to one bucket's queue (``W_i^j``)."""

    query_id: int
    object_count: int
    enqueue_time_ms: float
    objects: Tuple[CrossMatchObject, ...] = ()

    def __post_init__(self) -> None:
        if self.object_count <= 0:
            raise ValueError("a workload entry must carry at least one object")


class WorkloadQueue:
    """All pending work for a single bucket.

    The total object count and the oldest enqueue time are maintained
    incrementally on append and recomputed only on partial drains (which
    only the per-query baselines perform).
    """

    __slots__ = ("bucket_index", "entries", "_total_objects", "_oldest_ms")

    def __init__(self, bucket_index: int, entries: Optional[List[WorkloadEntry]] = None) -> None:
        self.bucket_index = bucket_index
        self.entries: List[WorkloadEntry] = list(entries) if entries else []
        self._total_objects = sum(e.object_count for e in self.entries)
        self._oldest_ms = (
            min(e.enqueue_time_ms for e in self.entries) if self.entries else float("inf")
        )

    @property
    def total_objects(self) -> int:
        """Size of the workload queue (the ``sum_j W_i^j`` of Equation 1)."""
        return self._total_objects

    @property
    def query_ids(self) -> List[int]:
        """Queries with pending work in this bucket, in enqueue order."""
        return [entry.query_id for entry in self.entries]

    def age_ms(self, now_ms: float) -> float:
        """Age ``A(i)`` of the oldest request at time *now_ms*."""
        if not self.entries:
            return 0.0
        return max(0.0, now_ms - self._oldest_ms)

    def append(self, entry: WorkloadEntry) -> None:
        """Add one entry, updating the cached aggregates."""
        self.entries.append(entry)
        self._total_objects += entry.object_count
        if entry.enqueue_time_ms < self._oldest_ms:
            self._oldest_ms = entry.enqueue_time_ms

    def remove_queries(self, query_ids: Set[int]) -> List[WorkloadEntry]:
        """Remove and return the entries belonging to *query_ids*."""
        removed = [e for e in self.entries if e.query_id in query_ids]
        if not removed:
            return []
        self.entries = [e for e in self.entries if e.query_id not in query_ids]
        self._total_objects = sum(e.object_count for e in self.entries)
        self._oldest_ms = (
            min(e.enqueue_time_ms for e in self.entries) if self.entries else float("inf")
        )
        return removed

    def drain_all(self) -> List[WorkloadEntry]:
        """Remove and return every entry."""
        drained = self.entries
        self.entries = []
        self._total_objects = 0
        self._oldest_ms = float("inf")
        return drained

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


@dataclass
class _QueryState:
    """Internal per-query bookkeeping."""

    query_id: int
    arrival_time_ms: float
    total_buckets: int
    total_objects: int
    remaining_buckets: Set[int]
    completion_time_ms: Optional[float] = None

    @property
    def is_complete(self) -> bool:
        return not self.remaining_buckets


#: One scheduling-index entry: ``(-queue size, bucket index, oldest enqueue
#: time)``, so a sorted list has its largest queue first and equal sizes by
#: bucket index (the bucket is unique, so the time never decides an order).
IndexEntry = Tuple[int, int, float]


class WorkloadManager:
    """Owns the workload queues and the query-to-queue mapping.

    **Invariant — no empty queue is ever stored**: ``_queues`` holds exactly
    the buckets with pending work (a queue is created by its first entry and
    deleted by the drain or release that empties it), so the dict itself
    answers "is there work" and "which buckets".

    **The scheduling index** is derived from the queues and kept equal to
    them by every mutation (``add_query``, ``drain_bucket``, full or
    partial, ``adopt_bucket``, ``release_bucket``): one :data:`IndexEntry`
    per pending bucket, never a stale one, held in two sorted orders.  The
    key is free of α, the cost model and the normalisation, so nothing a
    scheduler is configured with can invalidate it:

    * ``_by_size`` — every entry, largest queue first;
    * ``_groups`` — the same entries grouped by oldest enqueue time, each
      group largest queue first (every bucket a query touches shares that
      query's arrival time, so there are far fewer groups than buckets);
      ``_group_times`` lists the groups' times ascending, so the oldest
      pending request is ``_group_times[0]``.

    The index is never pickled: a checkpoint carries the queues, and
    ``__setstate__`` rebuilds the index from them.
    """

    def __init__(self) -> None:
        self._queues: Dict[int, WorkloadQueue] = {}
        self._queries: Dict[int, _QueryState] = {}
        self._completed: List[int] = []
        #: Query ids in arrival order with a cursor for oldest_pending_query().
        self._arrival_order: List[int] = []
        self._arrival_cursor = 0
        self._rebuild_index()

    # ------------------------------------------------------------------ #
    # scheduling index (derived state)
    # ------------------------------------------------------------------ #

    def _rebuild_index(self) -> None:
        """Derive the scheduling index and the entry count from the queues."""
        self._by_size: List[IndexEntry] = sorted(
            (-queue._total_objects, queue.bucket_index, queue._oldest_ms)
            for queue in self._queues.values()
        )
        self._groups: Dict[float, List[IndexEntry]] = {}
        for entry in self._by_size:
            self._groups.setdefault(entry[2], []).append(entry)
        self._group_times: List[float] = sorted(self._groups)
        self._pending_entries = sum(len(queue.entries) for queue in self._queues.values())

    def _index(self, queue: WorkloadQueue) -> None:
        """Enter a non-empty queue under its current key."""
        oldest_ms = queue._oldest_ms
        entry = (-queue._total_objects, queue.bucket_index, oldest_ms)
        group = self._groups.get(oldest_ms)
        if group is None:
            self._groups[oldest_ms] = [entry]
            insort(self._group_times, oldest_ms)
        else:
            insort(group, entry)
        insort(self._by_size, entry)

    def _unindex(self, queue: WorkloadQueue) -> None:
        """Remove a queue's entry; call *before* changing the queue."""
        oldest_ms = queue._oldest_ms
        entry = (-queue._total_objects, queue.bucket_index, oldest_ms)
        group = self._groups[oldest_ms]
        if len(group) == 1:
            del self._groups[oldest_ms]
            del self._group_times[bisect_left(self._group_times, oldest_ms)]
        else:
            del group[bisect_left(group, entry)]
        del self._by_size[bisect_left(self._by_size, entry)]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for derived in ("_by_size", "_groups", "_group_times", "_pending_entries"):
            del state[derived]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rebuild_index()

    # ------------------------------------------------------------------ #
    # intake
    # ------------------------------------------------------------------ #

    def add_query(
        self,
        query_id: int,
        assignments: Mapping[int, Sequence[CrossMatchObject]] | Mapping[int, int],
        arrival_time_ms: float,
        merge: bool = False,
    ) -> None:
        """Register a pre-processed query.

        *assignments* maps bucket index to either the explicit objects or an
        integer object count (abstract mode).  The entries are appended to
        the corresponding workload queues with *arrival_time_ms* as their
        enqueue time, which is what the age term of the scheduler measures.

        With ``merge=True`` a query this manager already knows about gains
        additional per-bucket work instead of raising.  Bucket migration
        needs this: a shard may adopt a stolen queue carrying entries of a
        query whose own share reaches the shard only later on its timeline.
        """
        if query_id in self._queries and not merge:
            raise ValueError(f"query {query_id} was already submitted")
        if not assignments:
            raise ValueError(f"query {query_id} has no per-bucket work")
        total_objects = 0
        for bucket_index, payload in assignments.items():
            if isinstance(payload, int):
                count, objects = payload, ()
            else:
                objects = tuple(payload)
                count = len(objects)
            if count <= 0:
                raise ValueError(
                    f"query {query_id} contributes no objects to bucket {bucket_index}"
                )
            queue = self._queues.get(bucket_index)
            if queue is None:
                queue = WorkloadQueue(bucket_index)
                self._queues[bucket_index] = queue
            else:
                self._unindex(queue)
            queue.append(
                WorkloadEntry(
                    query_id=query_id,
                    object_count=count,
                    enqueue_time_ms=arrival_time_ms,
                    objects=objects,
                )
            )
            self._index(queue)
            self._pending_entries += 1
            total_objects += count
        state = self._queries.get(query_id)
        if state is not None:
            # A complete query being re-opened may already have been skipped
            # by the arrival cursor; rewind so it is never missed.  (An
            # incomplete query can never sit behind the cursor, so the
            # common staged-ingestion merge keeps the cursor amortised.)
            if state.is_complete:
                self._arrival_cursor = 0
            state.remaining_buckets.update(assignments.keys())
            state.total_buckets += len(assignments)
            state.total_objects += total_objects
            return
        self._queries[query_id] = _QueryState(
            query_id=query_id,
            arrival_time_ms=arrival_time_ms,
            total_buckets=len(assignments),
            total_objects=total_objects,
            remaining_buckets=set(assignments.keys()),
        )
        self._insert_in_arrival_order(query_id, arrival_time_ms)

    def _insert_in_arrival_order(self, query_id: int, arrival_time_ms: float) -> None:
        """Keep ``_arrival_order`` sorted by (arrival time, query id).

        Queries normally arrive in non-decreasing order, so the common case
        is a plain append.  After a bucket migration, though, a shard may
        learn about an *earlier* query than one it adopted (its own staged
        share ingests after the adoption), and arrival-order policies
        (NoShare, IndexOnly) rely on this list being sorted.
        """
        key = (arrival_time_ms, query_id)
        if self._arrival_order:
            last_id = self._arrival_order[-1]
            if key < (self._queries[last_id].arrival_time_ms, last_id):
                position = bisect_right(
                    self._arrival_order,
                    key,
                    key=lambda qid: (self._queries[qid].arrival_time_ms, qid),
                )
                self._arrival_order.insert(position, query_id)
                # The insertion may land behind the cursor; rewind so the
                # query is never missed.
                self._arrival_cursor = 0
                return
        self._arrival_order.append(query_id)

    # ------------------------------------------------------------------ #
    # scheduler-facing state
    # ------------------------------------------------------------------ #

    def pending_buckets(self) -> List[int]:
        """Bucket indices with non-empty workload queues."""
        return list(self._queues)

    def pending_bucket_count(self) -> int:
        """Number of buckets with pending work."""
        return len(self._queues)

    def pending_entries(self) -> int:
        """Entries waiting across all queues (one per (query, bucket) share)."""
        return self._pending_entries

    def has_pending_work(self) -> bool:
        """``True`` when any workload queue is non-empty."""
        return bool(self._queues)

    def age_groups(self) -> Iterator[Tuple[float, Sequence[IndexEntry]]]:
        """The scheduling index by age: ``(oldest enqueue time, entries)``, oldest first.

        One pair per distinct oldest enqueue time; *entries* are the queues
        whose oldest request has that time, largest queue first and equal
        sizes by bucket index.  The lists are the live index: read, never
        modify.
        """
        groups = self._groups
        return ((oldest_ms, groups[oldest_ms]) for oldest_ms in self._group_times)

    def size_order(self) -> Sequence[IndexEntry]:
        """The scheduling index by size: every pending bucket, largest queue first.

        The live index: read, never modify.
        """
        return self._by_size

    def pending_among(self, buckets: Iterable[int]) -> List[Tuple[int, int, float]]:
        """``(bucket, queue size, oldest enqueue time)`` of each pending one of *buckets*."""
        queues = self._queues
        return [
            (bucket, queue._total_objects, queue._oldest_ms)
            for bucket in buckets
            if (queue := queues.get(bucket)) is not None
        ]

    def queue(self, bucket_index: int) -> WorkloadQueue:
        """The workload queue of *bucket_index* (empty queue if none yet)."""
        return self._queues.get(bucket_index) or WorkloadQueue(bucket_index)

    def queue_size(self, bucket_index: int) -> int:
        """Number of pending objects for *bucket_index*."""
        queue = self._queues.get(bucket_index)
        return queue.total_objects if queue else 0

    def oldest_age_ms(self, bucket_index: int, now_ms: float) -> float:
        """Age of the oldest pending request in the bucket's queue."""
        queue = self._queues.get(bucket_index)
        if not queue:
            return 0.0
        return queue.age_ms(now_ms)

    def max_pending_age_ms(self, now_ms: float) -> float:
        """Age of the oldest request over all queues (normalisation reference)."""
        if not self._group_times:
            return 0.0
        return max(0.0, now_ms - self._group_times[0])

    def oldest_pending_query(self) -> Optional[int]:
        """The earliest-arriving incomplete query (NoShare's next victim).

        Amortised O(1): queries were appended in arrival order, so a cursor
        that skips completed queries suffices.
        """
        while self._arrival_cursor < len(self._arrival_order):
            query_id = self._arrival_order[self._arrival_cursor]
            if not self._queries[query_id].is_complete:
                return query_id
            self._arrival_cursor += 1
        return None

    def remaining_buckets_for(self, query_id: int) -> Set[int]:
        """Buckets the query still has pending work in."""
        return set(self._queries[query_id].remaining_buckets)

    # ------------------------------------------------------------------ #
    # service
    # ------------------------------------------------------------------ #

    def drain_bucket(
        self,
        bucket_index: int,
        now_ms: float,
        query_ids: Optional[Iterable[int]] = None,
    ) -> Tuple[List[WorkloadEntry], List[int]]:
        """Remove work from a bucket's queue after it has been serviced.

        Removes the entries of *query_ids* (all entries when ``None``) and
        returns ``(drained entries, queries completed by this service)``.
        Completed queries are stamped with *now_ms* as completion time.
        """
        queue = self._queues.get(bucket_index)
        if queue is None:
            return [], []
        self._unindex(queue)
        if query_ids is None:
            drained = queue.drain_all()
        else:
            drained = queue.remove_queries(set(query_ids))
        self._pending_entries -= len(drained)
        completed: List[int] = []
        for entry in drained:
            state = self._queries[entry.query_id]
            state.remaining_buckets.discard(bucket_index)
            if state.is_complete and state.completion_time_ms is None:
                state.completion_time_ms = now_ms
                completed.append(entry.query_id)
                self._completed.append(entry.query_id)
        if queue.entries:
            self._index(queue)
        else:
            del self._queues[bucket_index]
        return drained, completed

    # ------------------------------------------------------------------ #
    # bucket migration (work stealing between parallel shards)
    # ------------------------------------------------------------------ #

    def oldest_bucket_enqueue_ms(self, bucket_index: int) -> float:
        """Enqueue time of the oldest entry in a bucket's queue (inf if empty)."""
        queue = self._queues.get(bucket_index)
        return queue._oldest_ms if queue is not None else float("inf")

    def release_bucket(self, bucket_index: int) -> List[WorkloadEntry]:
        """Hand a whole workload queue to another manager (steal source).

        The entries are removed *without* completion bookkeeping: affected
        queries simply forget this bucket, because responsibility for it —
        including completion accounting — moves to the adopting manager.
        Cross-shard query completion is tracked by the parallel engine, not
        by either manager.
        """
        queue = self._queues.get(bucket_index)
        if queue is None:
            return []
        self._unindex(queue)
        entries = queue.drain_all()
        self._pending_entries -= len(entries)
        del self._queues[bucket_index]
        for query_id in {entry.query_id for entry in entries}:
            state = self._queries.get(query_id)
            if state is not None:
                state.remaining_buckets.discard(bucket_index)
        return entries

    def adopt_bucket(self, bucket_index: int, entries: Sequence[WorkloadEntry]) -> None:
        """Take ownership of a stolen workload queue (steal destination).

        Entries keep their original enqueue times so ages — and therefore
        the aged-workload-throughput metric — are unaffected by migration.
        Queries unknown to this manager get a lightweight state so drains
        and per-query scheduling keep working on the new shard.
        """
        if not entries:
            return
        queue = self._queues.get(bucket_index)
        if queue is None:
            queue = WorkloadQueue(bucket_index)
            self._queues[bucket_index] = queue
        else:
            self._unindex(queue)
        self._pending_entries += len(entries)
        for entry in entries:
            queue.append(entry)
            state = self._queries.get(entry.query_id)
            if state is None:
                self._queries[entry.query_id] = _QueryState(
                    query_id=entry.query_id,
                    arrival_time_ms=entry.enqueue_time_ms,
                    total_buckets=1,
                    total_objects=entry.object_count,
                    remaining_buckets={bucket_index},
                )
                # Keep _arrival_order sorted by arrival time so arrival-order
                # policies (NoShare, IndexOnly) serve adopted queries in their
                # true order, not in adoption order.
                self._insert_in_arrival_order(entry.query_id, entry.enqueue_time_ms)
            else:
                state.remaining_buckets.add(bucket_index)
                state.total_buckets += 1
                state.total_objects += entry.object_count
        self._index(queue)
        # Adoption can re-open a query the oldest_pending_query() cursor has
        # already skipped (its local share drained before the steal) and can
        # insert behind the cursor; rewind so no pending query is ever missed.
        self._arrival_cursor = 0

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def completed_queries(self) -> List[int]:
        """Query IDs in completion order."""
        return list(self._completed)

    def completion_time_ms(self, query_id: int) -> Optional[float]:
        """Completion time of a query, or ``None`` while it is pending."""
        return self._queries[query_id].completion_time_ms

    def response_time_ms(self, query_id: int) -> Optional[float]:
        """Response time (completion − arrival) of a query."""
        state = self._queries[query_id]
        if state.completion_time_ms is None:
            return None
        return state.completion_time_ms - state.arrival_time_ms

    def submitted_count(self) -> int:
        """Number of queries submitted so far."""
        return len(self._queries)

    def completed_count(self) -> int:
        """Number of queries fully serviced so far."""
        return len(self._completed)
