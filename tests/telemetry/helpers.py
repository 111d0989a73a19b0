"""Test-side views of run telemetry: a ledger digest, a metric sum, a
serial batch builder and a golden re-record table.

Nothing in ``src/`` needs them; parity and golden tests use the first two
to compare ledgers and snapshots from different runs, the span and ledger
tests feed the builder's real ``BatchResult`` to their exporters, and the
golden files print :func:`moved_table` before they re-record.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Optional, Sequence, Union

from repro.core.engine import BatchResult
from repro.core.join_evaluator import JoinResult, JoinStrategy
from repro.core.scheduler import WorkItem

Number = Union[int, float]


def ledger_digest(ledger: dict) -> str:
    """SHA-256 of the canonical JSON encoding — equal digests mean
    bit-identical ledgers (the parity matrix compares these)."""
    encoded = json.dumps(ledger, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def serial_batch(
    bucket_index: int,
    start: float,
    finish: float,
    queries: Sequence[int],
    objects: Sequence[int] = (),
    io_ms: float = 0.0,
    match_ms: float = 0.0,
) -> BatchResult:
    """A serial-engine bucket service with the given timeline and cost split."""
    join = JoinResult(
        bucket_index=bucket_index,
        strategy=JoinStrategy.SEQUENTIAL_SCAN,
        cost_ms=finish - start,
        io_cost_ms=io_ms,
        match_cost_ms=match_ms,
        objects_processed=sum(objects),
        cache_hit=io_ms == 0.0,
    )
    return BatchResult(
        work_item=WorkItem(bucket_index),
        join=join,
        queries_served=tuple(queries),
        queries_completed=tuple(queries),
        started_at_ms=start,
        finished_at_ms=finish,
        objects_served=tuple(objects),
    )


def sum_metric(snapshot: Optional[dict], name: str) -> Number:
    """Sum a metric's value over every label combination."""
    if snapshot is None:
        return 0
    total: Number = 0
    for entry in snapshot.get("metrics", {}).values():
        if entry.get("name") == name:
            kind = entry.get("type")
            if kind == "histogram":
                total += entry.get("count", 0)
            elif kind == "series":
                total += len(entry.get("samples", ()))
            else:
                total += entry.get("value", 0)
    return total


def moved_table(committed: Mapping, recorded: Mapping) -> str:
    """A Markdown ``cell × fact`` table: which recorded facts moved.

    Both arguments map a cell name to its facts (``{fact: value}``); a
    cell absent from *committed* reads ``new``, and a fact a cell does not
    have reads ``-``.
    """
    facts = list(dict.fromkeys(fact for cell in recorded.values() for fact in cell))
    lines = [
        "| cell | " + " | ".join(facts) + " |",
        "|---|" + "---|" * len(facts),
    ]
    for name, cell in recorded.items():
        old = committed.get(name)
        marks = []
        for fact in facts:
            if fact not in cell:
                marks.append("-")
            elif old is None:
                marks.append("new")
            else:
                marks.append("moved" if old.get(fact) != cell[fact] else "unchanged")
        lines.append(f"| {name} | " + " | ".join(marks) + " |")
    return "\n".join(lines)
