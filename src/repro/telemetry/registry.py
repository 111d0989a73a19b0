"""Deterministic metrics registry: counters, gauges, histograms and series.

The registry is split into two **domains**:

``virtual``
    Advanced only by the virtual clock (or by other values that are a
    pure function of the admitted arrival schedule).  Virtual-domain
    snapshots are bit-identical across the serial engine, the
    ``VirtualBackend`` and the ``ProcessBackend`` at any fixed worker
    count — the telemetry parity suite pins that down.

``real``
    Wall-clock profile (real read seconds, page-cache behaviour,
    checkpoint write latency).  Useful, but never asserted in parity
    tests: two runs of the same spec legitimately differ here.

Metrics are identified by ``(name, labels)``; the serialized key is
``name|k=v|k2=v2`` with label keys sorted, so snapshots built on
different workers agree on identity.  Snapshots are plain picklable
dicts (they ride the ``WorkerResult`` IPC seam and the ``.lrcp``
checkpoint envelope) and merge **order-insensitively**: counters and
histogram buckets add, gauges take the maximum, and windowed series
union by window index (equal duplicate samples are tolerated —
crash-recovery replay can legitimately re-produce a sample — while
*conflicting* values at one index are an error, never a silent pick).
The property tests in ``tests/telemetry/test_registry.py`` verify the
merge algebra is commutative and associative and that the JSON codec
round-trips.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

VIRTUAL_DOMAIN = "virtual"
REAL_DOMAIN = "real"
_DOMAINS = (VIRTUAL_DOMAIN, REAL_DOMAIN)

#: Bumped when the snapshot schema changes shape.  Version 2 added the
#: ``series`` metric type; version-1 snapshots (no series) still decode.
SNAPSHOT_VERSION = 2
_SUPPORTED_SNAPSHOT_VERSIONS = (1, 2)

Number = Union[int, float]


def metric_key(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """Canonical identity of a metric: name plus sorted ``k=v`` labels."""
    if not labels:
        return name
    parts = [f"{key}={labels[key]}" for key in sorted(labels)]
    return "|".join([name, *parts])


class Counter:
    """Monotonically increasing value; merges by summation."""

    __slots__ = ("name", "labels", "domain", "value")

    def __init__(self, name: str, labels: Mapping[str, str], domain: str) -> None:
        self.name = name
        self.labels = dict(labels)
        self.domain = domain
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def to_entry(self) -> dict:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "domain": self.domain,
            "value": self.value,
        }


class Gauge:
    """Point-in-time value; merges by maximum (high-water semantics)."""

    __slots__ = ("name", "labels", "domain", "value")

    def __init__(self, name: str, labels: Mapping[str, str], domain: str) -> None:
        self.name = name
        self.labels = dict(labels)
        self.domain = domain
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def mark(self, value: Number) -> None:
        """Raise the gauge to *value* if it exceeds the current reading."""
        if value > self.value:
            self.value = value

    def to_entry(self) -> dict:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "domain": self.domain,
            "value": self.value,
        }


class Histogram:
    """Fixed-bound histogram; buckets merge elementwise.

    ``bounds`` are upper bucket edges; observations land in the first
    bucket whose bound is >= the value, with one overflow bucket at the
    end (``len(counts) == len(bounds) + 1``).  Bounds are part of the
    metric's identity contract: merging histograms with different bounds
    is an error, never a silent re-bin.
    """

    __slots__ = ("name", "labels", "domain", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        domain: str,
        bounds: Sequence[Number],
    ) -> None:
        edges = tuple(bounds)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(f"histogram {name!r} bounds must be strictly increasing")
        self.name = name
        self.labels = dict(labels)
        self.domain = domain
        self.bounds = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.sum: Number = 0
        self.count = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def to_entry(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "domain": self.domain,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class Series:
    """Windowed time series: one sample per deterministic window barrier.

    Samples are ``[window_index, value]`` pairs recorded in ascending
    index order — window ``k`` covers virtual time ``(k·W, (k+1)·W]``
    for the series' ``window_ms`` ``W``.  Unlike an end-of-run
    :class:`Gauge`, merging never collapses values: snapshots union by
    window index, so per-shard series concatenate their barriers
    instead of taking a global max.  ``window_ms`` is part of the
    identity contract, exactly like histogram bounds: merging series
    sampled at different cadences is an error, never a silent re-bin.
    """

    __slots__ = ("name", "labels", "domain", "window_ms", "samples")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        domain: str,
        window_ms: Number,
    ) -> None:
        if window_ms <= 0:
            raise ValueError(f"series {name!r} needs a positive window_ms")
        self.name = name
        self.labels = dict(labels)
        self.domain = domain
        self.window_ms = float(window_ms)
        #: ``[window_index, value]`` pairs, ascending by index.
        self.samples: List[List[Number]] = []

    @property
    def sample_count(self) -> int:
        """Number of window barriers sampled so far (the sampler's cursor)."""
        return len(self.samples)

    def record(self, window_index: int, value: Number) -> None:
        """Append the sample of one window barrier (indices must ascend)."""
        if self.samples and window_index <= self.samples[-1][0]:
            raise ValueError(
                f"series {self.name!r}: window index {window_index} is not "
                f"after the last recorded index {self.samples[-1][0]}"
            )
        self.samples.append([int(window_index), value])

    def to_entry(self) -> dict:
        return {
            "type": "series",
            "name": self.name,
            "labels": dict(self.labels),
            "domain": self.domain,
            "window_ms": self.window_ms,
            "samples": [list(sample) for sample in self.samples],
        }


Metric = Union[Counter, Gauge, Histogram, Series]


class MetricsRegistry:
    """One process-local family of metrics.

    Every shard lane owns a registry (created by ``build_service_loop``),
    as do the disk store, the serving front-end and the reliability
    coordinator; snapshots are merged in a deterministic order at the
    end of a run.  ``counter``/``gauge``/``histogram`` are get-or-create
    and return the live metric object, so hot paths resolve a metric
    once and pay only an attribute bump per event.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def counter(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        domain: str = VIRTUAL_DOMAIN,
    ) -> Counter:
        return self._get_or_create(Counter, name, labels, domain)

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        domain: str = VIRTUAL_DOMAIN,
    ) -> Gauge:
        return self._get_or_create(Gauge, name, labels, domain)

    def histogram(
        self,
        name: str,
        bounds: Sequence[Number],
        labels: Optional[Mapping[str, str]] = None,
        domain: str = VIRTUAL_DOMAIN,
    ) -> Histogram:
        key = metric_key(name, labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(f"metric {key!r} already registered as {_type_name(existing)}")
            if existing.bounds != tuple(bounds):
                raise ValueError(f"histogram {key!r} re-registered with different bounds")
            _check_domain(existing, domain, key)
            return existing
        if domain not in _DOMAINS:
            raise ValueError(f"unknown telemetry domain {domain!r}")
        metric = Histogram(name, labels or {}, domain, bounds)
        self._metrics[key] = metric
        return metric

    def series(
        self,
        name: str,
        window_ms: Number,
        labels: Optional[Mapping[str, str]] = None,
        domain: str = VIRTUAL_DOMAIN,
    ) -> Series:
        key = metric_key(name, labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Series):
                raise ValueError(f"metric {key!r} already registered as {_type_name(existing)}")
            if existing.window_ms != float(window_ms):
                raise ValueError(f"series {key!r} re-registered with a different window_ms")
            _check_domain(existing, domain, key)
            return existing
        if domain not in _DOMAINS:
            raise ValueError(f"unknown telemetry domain {domain!r}")
        metric = Series(name, labels or {}, domain, window_ms)
        self._metrics[key] = metric
        return metric

    def _get_or_create(self, cls, name, labels, domain):
        key = metric_key(name, labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(f"metric {key!r} already registered as {_type_name(existing)}")
            _check_domain(existing, domain, key)
            return existing
        if domain not in _DOMAINS:
            raise ValueError(f"unknown telemetry domain {domain!r}")
        metric = cls(name, labels or {}, domain)
        self._metrics[key] = metric
        return metric

    def snapshot(self, domain: Optional[str] = None) -> dict:
        """A plain-dict, picklable, JSON-codable view of every metric."""
        metrics = {
            key: metric.to_entry()
            for key, metric in self._metrics.items()
            if domain is None or metric.domain == domain
        }
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def restore(self, snapshot: Optional[dict]) -> None:
        """Replace the registry's contents with *snapshot* (checkpoint restore).

        ``None`` (a checkpoint written before telemetry existed) resets
        the registry to empty, matching the pre-telemetry behaviour.
        Live metric objects are mutated in place where they already
        exist, so hot-path references held by a ``ServiceLoop`` stay
        valid across a recovery.
        """
        entries = {} if snapshot is None else dict(snapshot.get("metrics", {}))
        for key in list(self._metrics):
            if key in entries:
                _load_into(self._metrics[key], entries.pop(key), key)
            else:
                _reset(self._metrics[key])
        for key, entry in entries.items():
            self._metrics[key] = _metric_from_entry(entry, key)

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold *snapshot* into this registry (counters add, gauges max)."""
        if snapshot is None:
            return
        for key, entry in snapshot.get("metrics", {}).items():
            existing = self._metrics.get(key)
            if existing is None:
                self._metrics[key] = _metric_from_entry(entry, key)
            else:
                _merge_into(existing, entry, key)


def _type_name(metric: Metric) -> str:
    return type(metric).__name__.lower()


def _check_domain(metric: Metric, domain: str, key: str) -> None:
    if metric.domain != domain:
        raise ValueError(
            f"metric {key!r} already registered in domain {metric.domain!r}, not {domain!r}"
        )


def _metric_from_entry(entry: Mapping, key: str) -> Metric:
    kind = entry.get("type")
    name = entry.get("name", key)
    labels = entry.get("labels", {})
    domain = entry.get("domain", VIRTUAL_DOMAIN)
    if domain not in _DOMAINS:
        raise ValueError(f"metric {key!r} has unknown domain {domain!r}")
    if kind == "counter":
        metric: Metric = Counter(name, labels, domain)
    elif kind == "gauge":
        metric = Gauge(name, labels, domain)
    elif kind == "histogram":
        metric = Histogram(name, labels, domain, entry["bounds"])
    elif kind == "series":
        metric = Series(name, labels, domain, entry["window_ms"])
    else:
        raise ValueError(f"metric {key!r} has unknown type {kind!r}")
    _load_into(metric, entry, key)
    return metric


def _load_into(metric: Metric, entry: Mapping, key: str) -> None:
    _check_entry_shape(metric, entry, key)
    if isinstance(metric, Histogram):
        metric.counts = list(entry["counts"])
        metric.sum = entry["sum"]
        metric.count = entry["count"]
    elif isinstance(metric, Series):
        metric.samples = [list(sample) for sample in entry["samples"]]
    else:
        metric.value = entry["value"]


def _reset(metric: Metric) -> None:
    if isinstance(metric, Histogram):
        metric.counts = [0] * (len(metric.bounds) + 1)
        metric.sum = 0
        metric.count = 0
    elif isinstance(metric, Series):
        metric.samples = []
    else:
        metric.value = 0


def _merge_into(metric: Metric, entry: Mapping, key: str) -> None:
    _check_entry_shape(metric, entry, key)
    if isinstance(metric, Counter):
        metric.value += entry["value"]
    elif isinstance(metric, Gauge):
        metric.value = max(metric.value, entry["value"])
    elif isinstance(metric, Series):
        # Union by window index.  A window sampled on both sides must
        # carry the same value (recovery replay re-produces samples
        # bit-identically); a conflict means two runs were mixed up.
        merged: Dict[int, Number] = {int(index): value for index, value in metric.samples}
        for index, value in entry["samples"]:
            index = int(index)
            if index in merged:
                if merged[index] != value:
                    raise ValueError(
                        f"series {key!r}: conflicting samples at window "
                        f"{index} ({merged[index]!r} vs {value!r}); "
                        "refusing to merge"
                    )
            else:
                merged[index] = value
        metric.samples = [[index, merged[index]] for index in sorted(merged)]
    else:
        metric.counts = [a + b for a, b in zip(metric.counts, entry["counts"])]
        metric.sum += entry["sum"]
        metric.count += entry["count"]


def _check_entry_shape(metric: Metric, entry: Mapping, key: str) -> None:
    kind = entry.get("type")
    if kind != _type_name(metric):
        raise ValueError(f"metric {key!r}: cannot combine {_type_name(metric)} with {kind}")
    domain = entry.get("domain", VIRTUAL_DOMAIN)
    if domain != metric.domain:
        raise ValueError(
            f"metric {key!r}: domain mismatch ({metric.domain!r} vs {domain!r})"
        )
    if isinstance(metric, Histogram) and tuple(entry.get("bounds", ())) != metric.bounds:
        raise ValueError(f"histogram {key!r}: bucket bounds differ; refusing to merge")
    if isinstance(metric, Series) and float(entry.get("window_ms", 0.0)) != metric.window_ms:
        raise ValueError(f"series {key!r}: window_ms differs; refusing to merge")


def empty_snapshot() -> dict:
    """The identity element of the merge algebra."""
    return {"version": SNAPSHOT_VERSION, "metrics": {}}


def merge_snapshots(snapshots: Iterable[Optional[dict]]) -> dict:
    """Merge snapshot dicts; ``None`` entries are skipped.

    Counters and histogram buckets add and gauges take the maximum, so
    the result is independent of input order (exactly for integer
    values; callers that merge float counters pass snapshots in a
    deterministic order — worker id — so every backend folds the same
    way).
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


def filter_domain(snapshot: Optional[dict], domain: str) -> dict:
    """The sub-snapshot holding only *domain* metrics (for parity asserts)."""
    if domain not in _DOMAINS:
        raise ValueError(f"unknown telemetry domain {domain!r}")
    if snapshot is None:
        return empty_snapshot()
    metrics = {
        key: entry
        for key, entry in snapshot.get("metrics", {}).items()
        if entry.get("domain") == domain
    }
    return {"version": snapshot.get("version", SNAPSHOT_VERSION), "metrics": metrics}


def snapshot_to_json(snapshot: dict) -> str:
    """Deterministic JSON encoding (sorted keys, stable float repr)."""
    return json.dumps(snapshot, sort_keys=True, indent=2)


def snapshot_from_json(text: str) -> dict:
    """Decode and validate a snapshot produced by :func:`snapshot_to_json`."""
    snapshot = json.loads(text)
    if not isinstance(snapshot, dict) or "metrics" not in snapshot:
        raise ValueError("not a telemetry metrics snapshot (missing 'metrics')")
    version = snapshot.get("version")
    if version not in _SUPPORTED_SNAPSHOT_VERSIONS:
        raise ValueError(f"unsupported metrics snapshot version {version!r}")
    # Round-trip through the registry to validate every entry's shape.
    registry = MetricsRegistry()
    registry.merge(snapshot)
    return snapshot


def metric_value(snapshot: Optional[dict], name: str, labels: Optional[Mapping[str, str]] = None):
    """Convenience lookup: the value of one counter/gauge (0 if absent)."""
    if snapshot is None:
        return 0
    entry = snapshot.get("metrics", {}).get(metric_key(name, labels))
    if entry is None:
        return 0
    if entry.get("type") == "histogram":
        return entry.get("count", 0)
    if entry.get("type") == "series":
        return len(entry.get("samples", ()))
    return entry.get("value", 0)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REAL_DOMAIN",
    "SNAPSHOT_VERSION",
    "Series",
    "VIRTUAL_DOMAIN",
    "empty_snapshot",
    "filter_domain",
    "merge_snapshots",
    "metric_key",
    "metric_value",
    "snapshot_from_json",
    "snapshot_to_json",
]
