"""Per-shard span tracing: one run as a Chrome-trace-format timeline.

Spans are derived *after* a run from records the engines already emit —
:class:`~repro.parallel.ipc.BatchRecord` services, steal records, window
boundaries and the reliability report — so building a trace costs the
run nothing (the zero-perturbation contract of the telemetry subsystem).

The output is the Chrome trace event format (a JSON object with a
``traceEvents`` array), loadable in ``chrome://tracing`` or Perfetto:

* every bucket service is a complete (``"X"``) event on its worker's
  track, with the served queries and drained objects in ``args``;
* steals, crash recoveries, checkpoints and elastic scale events are
  instant (``"i"``) events on the worker they happened to;
* window barriers are process-scoped instants marking the coordinator's
  virtual-time boundaries;
* with ``include_query_flows`` enabled, every query gets a causal flow
  (``"s"``/``"t"``/``"f"`` events keyed by query id) stitching its
  lifecycle across tracks — from its admission instant on the front-end
  track (when admission records are supplied) through each bucket
  service chunk to its final drain — so Perfetto draws arrows from the
  gate decision to every shard that served the query.

All timestamps are the run's *virtual* clock (milliseconds, exported as
the format's microseconds), so traces are bit-identical across
execution backends just like the rest of the virtual domain.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Sequence

from repro.fileio import atomic_write

#: ``pid`` used for every event: one trace describes one run.
TRACE_PID = 1


def _ts_us(virtual_ms: float) -> float:
    """Virtual milliseconds → trace microseconds."""
    return virtual_ms * 1000.0


def _normalise_service(record) -> dict:
    """A parallel ``BatchRecord`` or a serial ``BatchResult`` (no worker id:
    the serial engine is one implicit shard)."""
    return {
        "worker_id": getattr(record, "worker_id", 0),
        "bucket_index": record.bucket_index,
        "started_at_ms": record.started_at_ms,
        "finished_at_ms": record.finished_at_ms,
        "queries_served": list(record.queries_served),
        "objects_served": list(record.objects_served),
    }


def _instant(
    name: str, ts_ms: float, tid: int, args: Optional[dict] = None, scope: str = "t"
) -> dict:
    event = {
        "name": name,
        "ph": "i",
        "ts": _ts_us(ts_ms),
        "pid": TRACE_PID,
        "tid": tid,
        "s": scope,
        "cat": "coordination",
    }
    if args:
        event["args"] = args
    return event


def _window_ts_ms(window_index: int, boundaries_ms: Sequence[float]) -> float:
    """Best-effort virtual time of a window barrier (0.0 when unknown)."""
    if 0 <= window_index < len(boundaries_ms):
        return boundaries_ms[window_index]
    if boundaries_ms:
        return boundaries_ms[-1]
    return 0.0


def _flow_event(phase: str, query_id: int, ts_ms: float, tid: int) -> dict:
    """One leg of a query's causal flow (``s`` start, ``t`` step, ``f`` end)."""
    event = {
        "name": f"query {query_id}",
        "cat": "query",
        "ph": phase,
        "id": query_id,
        "ts": _ts_us(ts_ms),
        "pid": TRACE_PID,
        "tid": tid,
    }
    if phase == "f":
        # Bind the flow end to the enclosing slice's end, not its start.
        event["bp"] = "e"
    return event


def build_chrome_trace(
    services: Iterable,
    steal_records: Sequence = (),
    window_boundaries_ms: Sequence[float] = (),
    reliability=None,
    label: str = "",
    backend: str = "",
    admission_records: Sequence = (),
    include_query_flows: bool = False,
) -> dict:
    """Assemble one run's timeline as a Chrome trace event object.

    *admission_records* are the front-end's
    :class:`~repro.service.frontend.AdmissionInstant` decisions; they
    render as instant events on a dedicated front-end track.  With
    *include_query_flows* set, per-query flow events stitch each query's
    gate decisions — every backpressure defer round plus the final admit
    — and its service chunks into one causal chain.
    """
    events: List[dict] = []
    normalised = [_normalise_service(record) for record in services]
    worker_ids = sorted({record["worker_id"] for record in normalised})
    for record in steal_records:
        worker_ids.extend((record.victim_id, record.thief_id))
    worker_ids = sorted(set(worker_ids))
    # The front-end's track sits above every shard track.
    frontend_tid = (max(worker_ids) if worker_ids else 0) + 1

    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": f"liferaft run{f' ({label})' if label else ''}"},
        }
    )
    for worker_id in worker_ids:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": worker_id,
                "args": {"name": f"shard-{worker_id}"},
            }
        )
    if admission_records:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": frontend_tid,
                "args": {"name": "frontend"},
            }
        )
        for record in admission_records:
            events.append(
                {
                    "name": f"{record.outcome} q{record.query_id}",
                    "ph": "i",
                    "ts": _ts_us(record.time_ms),
                    "pid": TRACE_PID,
                    "tid": frontend_tid,
                    "s": "t",
                    "cat": "admission",
                    "args": {
                        "query": record.query_id,
                        "outcome": record.outcome,
                        "attempt": record.attempt,
                    },
                }
            )

    for record in normalised:
        events.append(
            {
                "name": f"bucket {record['bucket_index']}",
                "cat": "service",
                "ph": "X",
                "ts": _ts_us(record["started_at_ms"]),
                "dur": _ts_us(record["finished_at_ms"] - record["started_at_ms"]),
                "pid": TRACE_PID,
                "tid": record["worker_id"],
                "args": {
                    "bucket": record["bucket_index"],
                    "queries_served": record["queries_served"],
                    "objects_served": record["objects_served"],
                },
            }
        )

    if include_query_flows:
        # Per-query chunk chains, in deterministic (time, bucket) order.
        chunks: dict = {}
        for record in normalised:
            for query_id in record["queries_served"]:
                chunks.setdefault(query_id, []).append(record)
        gate_instants: dict = {}
        for record in admission_records:
            gate_instants.setdefault(record.query_id, []).append(record)
        for query_id in sorted(chunks):
            chain = sorted(
                chunks[query_id],
                key=lambda r: (r["started_at_ms"], r["bucket_index"], r["worker_id"]),
            )
            instants = sorted(
                gate_instants.get(query_id, ()),
                key=lambda r: (r.time_ms, r.attempt),
            )
            if instants:
                # The causal chain starts at the query's *first* gate
                # decision, and every later backpressure round — each
                # defer retry, not just the final admit — is stitched in
                # as a step on the front-end track, so a multi-round
                # deferred query shows its full wait chain.
                events.append(
                    _flow_event("s", query_id, instants[0].time_ms, frontend_tid)
                )
                for record in instants[1:]:
                    events.append(
                        _flow_event("t", query_id, record.time_ms, frontend_tid)
                    )
                steps = chain
            else:
                events.append(
                    _flow_event(
                        "s", query_id, chain[0]["started_at_ms"], chain[0]["worker_id"]
                    )
                )
                steps = chain[1:]
            for record in steps:
                events.append(
                    _flow_event("t", query_id, record["started_at_ms"], record["worker_id"])
                )
            last = chain[-1]
            events.append(
                _flow_event("f", query_id, last["finished_at_ms"], last["worker_id"])
            )

    for record in steal_records:
        events.append(
            _instant(
                f"steal bucket {record.bucket_index}",
                record.time_ms,
                record.thief_id,
                args={
                    "bucket": record.bucket_index,
                    "victim": record.victim_id,
                    "thief": record.thief_id,
                    "entries": record.entry_count,
                },
            )
        )

    for window_index, boundary_ms in enumerate(window_boundaries_ms):
        events.append(
            _instant(
                f"window {window_index}",
                boundary_ms,
                0,
                args={"window": window_index},
                scope="p",
            )
        )

    if reliability is not None:
        for mark in getattr(reliability, "checkpoint_marks", ()):
            events.append(
                _instant(
                    f"checkpoint w{mark.window_index}",
                    mark.clock_ms,
                    mark.worker_id,
                    args={"window": mark.window_index, "bytes": mark.byte_size},
                )
            )
        for event in reliability.recoveries:
            ts_ms = _window_ts_ms(event.window_index, window_boundaries_ms)
            events.append(
                _instant(
                    f"recover shard {event.worker_id}",
                    ts_ms,
                    event.worker_id,
                    args={
                        "window": event.window_index,
                        "checkpoint_window": event.checkpoint_window,
                        "services_replayed": event.services_replayed,
                    },
                )
            )
        for event in reliability.scale_events:
            ts_ms = _window_ts_ms(event.window_index, window_boundaries_ms)
            events.append(
                _instant(
                    f"scale-{event.kind} shard {event.worker_id}",
                    ts_ms,
                    event.worker_id,
                    args={
                        "window": event.window_index,
                        "kind": event.kind,
                        "buckets_migrated": event.buckets_migrated,
                        "entries_migrated": event.entries_migrated,
                    },
                )
            )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual",
            "backend": backend,
            "label": label,
            "workers": len(worker_ids),
            "services": len(normalised),
            "steals": len(steal_records),
            "windows": len(window_boundaries_ms),
            "admissions": len(admission_records),
            "query_flows": include_query_flows,
        },
    }


def write_chrome_trace(path: str, trace: dict) -> None:
    """Atomically write a trace object as Perfetto-loadable JSON."""
    atomic_write(path, json.dumps(trace, sort_keys=True).encode("utf-8"))


def validate_chrome_trace(trace: dict) -> None:
    """Raise ``ValueError`` unless *trace* is a well-formed event object."""
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("not a Chrome trace object (missing 'traceEvents')")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"traceEvents[{index}] missing required key {key!r}")
        phase = event["ph"]
        if phase == "X":
            if "ts" not in event or "dur" not in event:
                raise ValueError(f"traceEvents[{index}]: complete events need ts and dur")
            if event["dur"] < 0:
                raise ValueError(f"traceEvents[{index}]: negative duration")
        elif phase == "i":
            if "ts" not in event:
                raise ValueError(f"traceEvents[{index}]: instant events need ts")
        elif phase in ("s", "t", "f"):
            if "ts" not in event or "id" not in event:
                raise ValueError(f"traceEvents[{index}]: flow events need ts and id")
        elif phase != "M":
            raise ValueError(f"traceEvents[{index}]: unexpected phase {phase!r}")


__all__ = ["TRACE_PID", "build_chrome_trace", "validate_chrome_trace", "write_chrome_trace"]
