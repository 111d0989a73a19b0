"""A generic least-recently-used cache with hit/miss accounting.

The paper's Bucket Cache uses "a simple least recently used policy for
cache replacement" (§4) and is fixed at 20 buckets in the experiments
(§5).  The LifeRaft-specific wrapper lives in
:mod:`repro.core.bucket_cache`; this module provides the policy itself,
kept separate so it can be unit- and property-tested in isolation and
reused by the file-backed store's decoded-page tier.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


@dataclass
class CacheStatistics:
    """Counters describing cache behaviour over its lifetime."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def snapshot(self) -> Dict[str, float]:
        """Return the counters as a plain dictionary (for reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def restore(self, counters: Dict[str, float]) -> None:
        """Overwrite the counters from a :meth:`snapshot` dictionary.

        Crash recovery rebuilds a cache at a checkpointed state; the
        counters must resume from their checkpointed values so lifetime
        hit rates are identical to an uninterrupted run.
        """
        self.hits = int(counters.get("hits", 0))
        self.misses = int(counters.get("misses", 0))
        self.insertions = int(counters.get("insertions", 0))
        self.evictions = int(counters.get("evictions", 0))


class LRUCache(Generic[K, V]):
    """Bounded mapping that evicts the least recently used entry when full.

    ``get`` and ``put`` both count as "uses" for recency purposes, matching
    the behaviour of a buffer pool where reading or (re)loading a bucket
    makes it the most recently used frame.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self._capacity = capacity
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self.statistics = CacheStatistics()

    @property
    def capacity(self) -> int:
        """Maximum number of entries held."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)

    def contains(self, key: K) -> bool:
        """Membership test that does **not** update recency or statistics.

        The workload-throughput metric needs to ask "is bucket *i* resident"
        (the φ(i) term) without perturbing the cache state, so a
        side-effect-free probe is part of the public interface.
        """
        return key in self._entries

    def get(self, key: K) -> Optional[V]:
        """Return the cached value for *key*, updating recency; ``None`` on miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.statistics.hits += 1
            return self._entries[key]
        self.statistics.misses += 1
        return None

    def put(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert or refresh *key*, returning the evicted ``(key, value)`` if any."""
        evicted: Optional[Tuple[K, V]] = None
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return None
        if len(self._entries) >= self._capacity:
            evicted = self._entries.popitem(last=False)
            self.statistics.evictions += 1
        self._entries[key] = value
        self.statistics.insertions += 1
        return evicted

    def seed(self, key: K, value: V) -> None:
        """Insert *key* as the most recent entry without touching counters.

        Recovery rebuilds a checkpointed cache image entry by entry (least
        to most recently used); seeding must neither count as an access
        nor evict — the caller replays at most ``capacity`` entries.
        """
        if key not in self._entries and len(self._entries) >= self._capacity:
            raise ValueError(
                f"cannot seed more than {self._capacity} entries into the cache"
            )
        self._entries[key] = value
        self._entries.move_to_end(key)

    def clear(self) -> None:
        """Drop every entry (the paper flushes the DBMS buffer between buckets)."""
        self._entries.clear()

    def keys_by_recency(self) -> Tuple[K, ...]:
        """Keys ordered from least to most recently used."""
        return tuple(self._entries.keys())