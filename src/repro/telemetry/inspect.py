"""Human-readable summaries of exported metrics snapshots.

Backs ``liferaft inspect <metrics.json>``: load a snapshot written by
``liferaft run --metrics-out``, group it by telemetry domain and render
one row per metric.  Pure presentation — nothing here feeds back into a
run.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.fileio import FormatError, read_file
from repro.telemetry.registry import snapshot_from_json


def load_snapshot(path: str) -> dict:
    """Read and validate a metrics snapshot file."""
    what = f"metrics snapshot {path!r}"
    data = read_file(path, what)
    try:
        return snapshot_from_json(data.decode("utf-8"))
    except ValueError as error:  # also JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{what} is not valid: {error}") from error


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:,.4g}"
    return str(value)


def describe_entry(entry: dict) -> str:
    """One metric's value column."""
    if entry["type"] == "histogram":
        count = entry["count"]
        if count == 0:
            return "n=0"
        mean = entry["sum"] / count
        return f"n={count:,} sum={_format_value(entry['sum'])} mean={mean:,.4g}"
    if entry["type"] == "series":
        samples = entry["samples"]
        if not samples:
            return f"n=0 window={_format_value(entry['window_ms'])}ms"
        values = [value for _index, value in samples]
        return (
            f"n={len(samples):,} window={_format_value(entry['window_ms'])}ms "
            f"min={_format_value(min(values))} max={_format_value(max(values))} "
            f"last={_format_value(values[-1])}"
        )
    return _format_value(entry["value"])


def _label_text(entry: dict) -> str:
    labels = entry.get("labels") or {}
    if not labels:
        return ""
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{{{inner}}}"


def summary_rows(snapshot: dict) -> List[Tuple[str, str, str, str]]:
    """``(domain, metric, type, value)`` rows, virtual domain first."""
    entries = snapshot.get("metrics", {})
    ordered = sorted(
        entries.items(),
        key=lambda item: (item[1].get("domain", ""), item[1].get("name", ""), item[0]),
    )
    rows: List[Tuple[str, str, str, str]] = []
    for _key, entry in ordered:
        rows.append(
            (
                entry.get("domain", "?"),
                f"{entry['name']}{_label_text(entry)}",
                entry["type"],
                describe_entry(entry),
            )
        )
    # Virtual domain leads: it is the deterministic, parity-checked half.
    rows.sort(key=lambda row: (row[0] != "virtual",))
    return rows


def domain_counts(snapshot: dict) -> Tuple[int, int]:
    """``(virtual, real)`` metric counts of a snapshot."""
    entries = snapshot.get("metrics", {}).values()
    virtual = sum(1 for entry in entries if entry.get("domain") == "virtual")
    return virtual, len(snapshot.get("metrics", {})) - virtual


__all__ = ["describe_entry", "domain_counts", "load_snapshot", "summary_rows"]
