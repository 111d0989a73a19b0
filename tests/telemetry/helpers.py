"""Test-side views of run telemetry: a ledger digest and a metric sum.

Nothing in ``src/`` needs either; parity and golden tests use them to
compare ledgers and snapshots from different runs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Union

Number = Union[int, float]


def ledger_digest(ledger: dict) -> str:
    """SHA-256 of the canonical JSON encoding — equal digests mean
    bit-identical ledgers (the parity matrix compares these)."""
    encoded = json.dumps(ledger, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


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
