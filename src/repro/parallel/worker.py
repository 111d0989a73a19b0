"""What a shard is fed: staged arrival shares, and its own scheduler.

A shard (:class:`repro.parallel.ipc.ShardWorker`) receives its arrivals
*staged*: each per-bucket :class:`StagedShare` is held until the shard's
own clock reaches its arrival time.  Staging makes a shard's whole
execution a pure function of its arrival schedule — no global state leaks
into local decisions — which is the property that lets its timeline come
out the same in-process and in an OS process.  :class:`StagedShare` lives
here, apart from the shard, because its import path is inside every
pickled ``.lrcp`` checkpoint's stage.

Every shard gets a *clone* of the scheduling-policy prototype
(:func:`clone_policy`: decision counters and adaptive state are per-lane)
and its own cache over the bucket store, mirroring N servers with private
buffer pools over one storage backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduler import SchedulingPolicy


@dataclass(frozen=True)
class StagedShare:
    """One query's pending work for one bucket, awaiting its arrival time.

    Shares are staged per bucket (not per query) so that work stealing can
    re-route the not-yet-ingested remainder of a migrated bucket without
    touching the query's shares for other buckets.
    """

    arrival_ms: float
    query_id: int
    bucket_index: int
    payload: object  # an int object count or a tuple of CrossMatchObject


def clone_policy(prototype: SchedulingPolicy, worker_id: int) -> SchedulingPolicy:
    """Per-shard scheduler: clone the prototype (worker 0 may reuse it).

    Worker 0 keeps the prototype itself so a single-worker pool behaves
    bit-for-bit like the serial engine built around the same instance.
    The coordinator builds every shard's policy through it.
    """
    if worker_id == 0:
        return prototype
    clone = getattr(prototype, "clone", None)
    if clone is None:
        raise TypeError(
            f"policy {prototype!r} does not support clone(); "
            "per-shard schedulers must be constructible per worker"
        )
    return clone()
