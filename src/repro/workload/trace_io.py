"""The ``.lrtr`` recorded-trace codec: versioned, CRC-checked trace files.

The paper's evaluation replays a recorded SDSS query trace (§5.1); this
module gives the reproduction the same capability.  A ``.lrtr`` file
captures one arrival stream — arrival times, query payloads (bucket
footprints or explicit objects), client ids and deadline classes — plus a
JSON metadata block describing the run that recorded it (policy, alpha,
worker topology, bucket count, scenario name) and the run's **result
digest**: a SHA-256 over the per-query completion timeline and every
virtual-clock parity field.  Replaying the file through any backend and
comparing digests turns "the run reproduced bit-for-bit" into a one-line
regression check (``liferaft replay``).

Layout (framed, published and rejected through :mod:`repro.fileio`)::

    header   <4sHHIQQI>  magic "LRTR", version, flags, query count,
                         meta length, body length, CRC-32 of meta+body
    meta     UTF-8 JSON, sorted keys (digest, tables, run description)
    body     one variable-length record per query (see _QUERY_FIXED)

Wall-clock timestamps are deliberately **not** recorded: a trace is a pure
function of its queries and seeds, so two recordings of the same run are
byte-identical.  Queries carrying a live ``predicate`` or ``region``
cannot be serialised and fail loudly — recorded traces are for the
footprint/object representations every experiment uses.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.fileio import (
    FormatError,
    atomic_write,
    check_crc,
    crc32,
    decode_json,
    read_file,
    unpack_header,
)
from repro.htm.curve import HTMRange
from repro.workload.query import CrossMatchObject, CrossMatchQuery

__all__ = [
    "TRACE_SUFFIX",
    "RecordedTrace",
    "TraceInfo",
    "read_trace",
    "run_digest",
    "write_trace",
]

#: Canonical file suffix of recorded traces.
TRACE_SUFFIX = ".lrtr"

_MAGIC = b"LRTR"
_VERSION = 1

#: magic, version, flags, query_count, meta_len, body_len, crc32(meta+body)
_HEADER = struct.Struct("<4sHHIQQI")

#: query_id, arrival_time_s, client_id (-1 = none), deadline index
#: (-1 = none), archive count, footprint entry count, object count
_QUERY_FIXED = struct.Struct("<qdqhBII")
_ARCHIVE_INDEX = struct.Struct("<H")
_FOOTPRINT_ENTRY = struct.Struct("<II")
#: object_id, htm low, htm high, ra, dec, match radius, magnitude
#: (ra/dec use NaN for "no position")
_OBJECT = struct.Struct("<qqqdddd")


@dataclass(frozen=True)
class TraceInfo:
    """Summary of one written trace file."""

    path: str
    query_count: int
    byte_size: int


@dataclass(frozen=True)
class RecordedTrace:
    """One decoded ``.lrtr`` file: the queries plus the recording context."""

    queries: Tuple[CrossMatchQuery, ...]
    meta: Dict[str, object]

    @property
    def expected_digest(self) -> str:
        """The recording run's result digest ("" when none was recorded)."""
        return str(self.meta.get("expected_digest", ""))

    def __len__(self) -> int:
        return len(self.queries)


def run_digest(
    response_times_ms: Mapping[int, float], parity_values: Sequence[float]
) -> str:
    """SHA-256 of a run's completion timeline plus its parity totals.

    The digest covers every ``(query_id, response_ms)`` pair in query-id
    order and every :data:`~repro.sim.simulator.VIRTUAL_CLOCK_PARITY_FIELDS`
    value, packed as little-endian doubles — so two runs share a digest
    exactly when their virtual-clock outcomes are bit-identical.
    """
    import hashlib

    hasher = hashlib.sha256()
    for query_id in sorted(response_times_ms):
        hasher.update(struct.pack("<qd", query_id, response_times_ms[query_id]))
    for value in parity_values:
        hasher.update(struct.pack("<d", float(value)))
    return hasher.hexdigest()


# --------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------- #


def _encode_query(
    query: CrossMatchQuery,
    archive_index: Dict[str, int],
    deadline_index: Dict[str, int],
) -> bytes:
    if query.predicate is not None or query.region is not None:
        raise FormatError(
            f"query {query.query_id} carries a live predicate/region; "
            "recorded traces hold only footprint/object payloads"
        )
    client_id = -1 if query.client_id is None else int(query.client_id)
    if query.client_id is not None and client_id < 0:
        raise FormatError(
            f"query {query.query_id} has negative client id {client_id}"
        )
    deadline = (
        -1 if query.deadline_class is None else deadline_index[query.deadline_class]
    )
    footprint = query.bucket_footprint or {}
    for bucket, count in footprint.items():
        if bucket < 0:
            raise FormatError(
                f"query {query.query_id} footprint has negative bucket {bucket}"
            )
        del count  # positivity is enforced by CrossMatchQuery itself
    parts: List[bytes] = [
        _QUERY_FIXED.pack(
            query.query_id,
            query.arrival_time_s,
            client_id,
            deadline,
            len(query.archives),
            len(footprint),
            len(query.objects),
        )
    ]
    parts.extend(
        _ARCHIVE_INDEX.pack(archive_index[name]) for name in query.archives
    )
    parts.extend(
        _FOOTPRINT_ENTRY.pack(bucket, count)
        for bucket, count in sorted(footprint.items())
    )
    for obj in query.objects:
        parts.append(
            _OBJECT.pack(
                obj.object_id,
                obj.htm_range.low,
                obj.htm_range.high,
                obj.ra if obj.ra is not None else math.nan,
                obj.dec if obj.dec is not None else math.nan,
                obj.match_radius_arcsec,
                obj.magnitude,
            )
        )
    return b"".join(parts)


def write_trace(
    path: str,
    queries: Sequence[CrossMatchQuery],
    meta: Optional[Mapping[str, object]] = None,
    expected_digest: str = "",
) -> TraceInfo:
    """Record *queries* (plus *meta* and the run's digest) into *path*.

    The write is atomic, so a crashed recording never leaves a truncated
    trace behind.
    """
    archives: List[str] = []
    archive_index: Dict[str, int] = {}
    deadlines: List[str] = []
    deadline_index: Dict[str, int] = {}
    for query in queries:
        for name in query.archives:
            if name not in archive_index:
                archive_index[name] = len(archives)
                archives.append(name)
        if query.deadline_class is not None and query.deadline_class not in deadline_index:
            deadline_index[query.deadline_class] = len(deadlines)
            deadlines.append(query.deadline_class)
    if len(archives) > 0xFFFF:
        raise FormatError("more than 65,535 distinct archive names")
    body = b"".join(_encode_query(q, archive_index, deadline_index) for q in queries)
    full_meta: Dict[str, object] = dict(meta or {})
    full_meta["archives"] = archives
    full_meta["deadline_classes"] = deadlines
    if expected_digest:
        full_meta["expected_digest"] = expected_digest
    meta_bytes = json.dumps(full_meta, sort_keys=True).encode("utf-8")
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        0,
        len(queries),
        len(meta_bytes),
        len(body),
        crc32(body, crc32(meta_bytes)),
    )
    path = os.fspath(path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    byte_size = atomic_write(path, header, meta_bytes, body)
    return TraceInfo(path=path, query_count=len(queries), byte_size=byte_size)


# --------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------- #


def _decode_query(
    blob: bytes,
    offset: int,
    archives: Sequence[str],
    deadlines: Sequence[str],
) -> Tuple[CrossMatchQuery, int]:
    try:
        (
            query_id,
            arrival_s,
            client_id,
            deadline,
            n_archives,
            n_footprint,
            n_objects,
        ) = _QUERY_FIXED.unpack_from(blob, offset)
    except struct.error as error:
        raise FormatError(f"truncated query record at offset {offset}") from error
    offset += _QUERY_FIXED.size
    try:
        query_archives = tuple(
            archives[_ARCHIVE_INDEX.unpack_from(blob, offset + i * _ARCHIVE_INDEX.size)[0]]
            for i in range(n_archives)
        )
        offset += n_archives * _ARCHIVE_INDEX.size
        footprint: Optional[Dict[int, int]] = None
        if n_footprint:
            footprint = {}
            for i in range(n_footprint):
                bucket, count = _FOOTPRINT_ENTRY.unpack_from(
                    blob, offset + i * _FOOTPRINT_ENTRY.size
                )
                footprint[bucket] = count
            offset += n_footprint * _FOOTPRINT_ENTRY.size
        objects: List[CrossMatchObject] = []
        for i in range(n_objects):
            object_id, low, high, ra, dec, radius, magnitude = _OBJECT.unpack_from(
                blob, offset + i * _OBJECT.size
            )
            objects.append(
                CrossMatchObject(
                    object_id=object_id,
                    htm_range=HTMRange(low, high),
                    ra=None if math.isnan(ra) else ra,
                    dec=None if math.isnan(dec) else dec,
                    match_radius_arcsec=radius,
                    magnitude=magnitude,
                )
            )
        offset += n_objects * _OBJECT.size
    except (struct.error, IndexError) as error:
        raise FormatError(
            f"corrupt query record for query {query_id}"
        ) from error
    query = CrossMatchQuery(
        query_id=query_id,
        objects=tuple(objects),
        bucket_footprint=footprint,
        arrival_time_s=arrival_s,
        archives=query_archives,
        client_id=None if client_id < 0 else client_id,
        deadline_class=None if deadline < 0 else deadlines[deadline],
    )
    return query, offset


def read_trace(path: str) -> RecordedTrace:
    """Decode one ``.lrtr`` file, validating magic, version and CRC."""
    path = os.fspath(path)
    what = f"trace {path!r}"
    blob = read_file(path, what)
    _magic, _version, _flags, query_count, meta_len, body_len, crc = unpack_header(
        blob, _HEADER, _MAGIC, _VERSION, what
    )
    payload = blob[_HEADER.size :]
    if len(payload) != meta_len + body_len:
        raise FormatError(
            f"{what} is truncated: expected {meta_len + body_len} payload "
            f"bytes, found {len(payload)}"
        )
    check_crc(payload, crc, what)
    meta = decode_json(payload[:meta_len], f"{what} metadata")
    archives = [str(name) for name in meta.get("archives", [])]
    deadlines = [str(name) for name in meta.get("deadline_classes", [])]
    body = payload[meta_len:]
    queries: List[CrossMatchQuery] = []
    offset = 0
    for _ in range(query_count):
        query, offset = _decode_query(body, offset, archives, deadlines)
        queries.append(query)
    if offset != len(body):
        raise FormatError(
            f"{what} has {len(body) - offset} trailing bytes after the last query"
        )
    return RecordedTrace(queries=tuple(queries), meta=meta)
