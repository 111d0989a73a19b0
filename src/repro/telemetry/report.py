"""Run reports and snapshot diffs over exported metrics snapshots.

Backs ``liferaft report <metrics.json>`` and the metric section of
``liferaft compare``: both consume snapshot files written by ``liferaft
run --metrics-out``, so reporting is pure presentation over
self-describing outputs — nothing here feeds back into a run.

A report renders four sections from one snapshot:

* **metrics** — every counter/gauge/histogram, virtual domain first;
* **series** — the windowed time-series layer, one row per
  ``(series, shard)`` with its window, sample count and value range;
* **SLA** — the per-deadline-class admission/completion tallies the
  serving front-end published as ``sla.*`` counters;
* **events** — the recovery/elasticity story (checkpoints, crashes,
  recoveries, scale events) from the reliability counters.

A diff compares two snapshots per metric key: counters, gauges and
histograms by value, series by sample count and changed samples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.fileio import FormatError, read_file
from repro.telemetry.registry import snapshot_from_json

__all__ = [
    "describe_entry",
    "diff_snapshots",
    "domain_counts",
    "load_snapshot",
    "render_report",
    "report_to_json",
    "summary_rows",
]

#: Counter-name prefixes that belong in the events section.
_EVENT_PREFIXES = ("reliability.", "coordinator.", "parallel.steals")


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


def _ordered_entries(snapshot: dict) -> List[dict]:
    """Metric entries, virtual domain first: the deterministic, parity-checked half."""
    ordered = sorted(
        snapshot.get("metrics", {}).items(),
        key=lambda item: (
            item[1].get("domain", "") != "virtual",
            item[1].get("domain", ""),
            item[1].get("name", ""),
            item[0],
        ),
    )
    return [entry for _key, entry in ordered]


def summary_rows(snapshot: dict) -> List[Tuple[str, str, str, str]]:
    """``(domain, metric, type, value)`` rows, virtual domain first."""
    return [
        (
            entry.get("domain", "?"),
            f"{entry['name']}{_label_text(entry)}",
            entry["type"],
            describe_entry(entry),
        )
        for entry in _ordered_entries(snapshot)
    ]


def domain_counts(snapshot: dict) -> Tuple[int, int]:
    """``(virtual, real)`` metric counts of a snapshot."""
    entries = snapshot.get("metrics", {}).values()
    virtual = sum(1 for entry in entries if entry.get("domain") == "virtual")
    return virtual, len(snapshot.get("metrics", {})) - virtual


def _series_entries(snapshot: dict) -> List[Tuple[str, dict]]:
    entries = snapshot.get("metrics", {})
    return sorted(
        (
            (key, entry)
            for key, entry in entries.items()
            if entry.get("type") == "series"
        ),
        key=lambda item: (item[1].get("name", ""), item[0]),
    )


def _sla_counts(snapshot: dict) -> Dict[str, Dict[str, float]]:
    """``{class: {field: value}}`` from the ``sla.*`` counters."""
    by_class: Dict[str, Dict[str, float]] = {}
    for entry in snapshot.get("metrics", {}).values():
        name = entry.get("name", "")
        if entry.get("type") != "counter" or not name.startswith("sla."):
            continue
        class_name = (entry.get("labels") or {}).get("class", "?")
        by_class.setdefault(class_name, {})[name[len("sla.") :]] = entry["value"]
    return by_class


def _format_row(cells: List[str], widths: List[int]) -> str:
    return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [_format_row(headers, widths)]
    lines.append(_format_row(["-" * width for width in widths], widths))
    lines.extend(_format_row(row, widths) for row in rows)
    return lines


def render_report(snapshot: dict) -> str:
    """Render one snapshot as a multi-section text report."""
    virtual, real = domain_counts(snapshot)
    lines: List[str] = [
        f"snapshot v{snapshot.get('version', '?')}: "
        f"{virtual} virtual + {real} real metrics"
    ]

    scalar_rows = [
        [domain, metric, kind, value]
        for domain, metric, kind, value in summary_rows(snapshot)
        if kind != "series"
    ]
    if scalar_rows:
        lines.append("")
        lines.append("== metrics ==")
        lines.extend(_table(["domain", "metric", "type", "value"], scalar_rows))

    series = _series_entries(snapshot)
    if series:
        lines.append("")
        lines.append("== series ==")
        rows = []
        for _key, entry in series:
            rows.append(
                [
                    entry.get("domain", "?"),
                    f"{entry['name']}{_label_text(entry)}",
                    describe_entry(entry),
                ]
            )
        lines.extend(_table(["domain", "series", "samples"], rows))

    sla = _sla_counts(snapshot)
    if sla:
        lines.append("")
        lines.append("== SLA ==")
        fields = ["admitted", "rejected", "completed", "first_result_met", "completion_met"]
        rows = [
            [name] + [f"{counts.get(field, 0):g}" for field in fields]
            for name, counts in sorted(sla.items())
        ]
        lines.extend(_table(["class"] + fields, rows))

    event_rows = [
        [domain, metric, value]
        for domain, metric, kind, value in summary_rows(snapshot)
        if kind == "counter" and metric.startswith(_EVENT_PREFIXES)
    ]
    if event_rows:
        lines.append("")
        lines.append("== events ==")
        lines.extend(_table(["domain", "event", "count"], event_rows))

    return "\n".join(lines)


def report_to_json(snapshot: dict) -> dict:
    """The report's sections as a machine-readable dict.

    Backs ``liferaft report --format json``: the same four sections the
    text renderer prints (metrics, series, SLA, events), structured for
    scripts and CI instead of eyeballs: values stay numeric (no display
    formatting) and labels come back as a mapping rather than rendered
    into the metric name.
    """
    virtual, real = domain_counts(snapshot)
    metrics = []
    for entry in _ordered_entries(snapshot):
        if entry.get("type") == "series":
            continue
        row = {
            "domain": entry.get("domain", "?"),
            "metric": entry["name"],
            "labels": entry.get("labels") or {},
            "type": entry["type"],
        }
        if entry["type"] == "histogram":
            row["count"] = entry.get("count")
            row["sum"] = entry.get("sum")
        else:
            row["value"] = entry.get("value")
        metrics.append(row)
    series = []
    for _key, entry in _series_entries(snapshot):
        series.append(
            {
                "domain": entry.get("domain", "?"),
                "name": entry["name"],
                "labels": entry.get("labels") or {},
                "window_ms": entry.get("window_ms"),
                "samples": [list(sample) for sample in entry.get("samples", ())],
            }
        )
    events = [
        {"domain": row["domain"], "event": row["metric"], "count": row["value"]}
        for row in metrics
        if row["type"] == "counter" and row["metric"].startswith(_EVENT_PREFIXES)
    ]
    return {
        "version": snapshot.get("version"),
        "domains": {"virtual": virtual, "real": real},
        "metrics": metrics,
        "series": series,
        "sla": _sla_counts(snapshot),
        "events": events,
    }


def _series_delta(a: dict, b: dict) -> Optional[str]:
    """Human delta of two series entries (``None`` when identical).

    Samples present in only one snapshot are reported as additions or
    removals — a longer-running second snapshot must not diff clean just
    because its extra windows have no counterpart to compare against.
    """
    a_samples = {int(index): value for index, value in a.get("samples", ())}
    b_samples = {int(index): value for index, value in b.get("samples", ())}
    if a_samples == b_samples and a.get("window_ms") == b.get("window_ms"):
        return None
    changed = sum(
        1
        for index in set(a_samples) & set(b_samples)
        if a_samples[index] != b_samples[index]
    )
    added = len(set(b_samples) - set(a_samples))
    removed = len(set(a_samples) - set(b_samples))
    parts = [f"samples {len(a_samples)} -> {len(b_samples)}"]
    if changed:
        parts.append(f"{changed} changed")
    if added:
        parts.append(f"{added} added")
    if removed:
        parts.append(f"{removed} removed")
    return ", ".join(parts)


def _scalar_delta(a: dict, b: dict) -> Optional[str]:
    """Human delta of two non-series entries (``None`` when identical)."""
    if a.get("type") == "histogram":
        if a.get("count") == b.get("count") and a.get("sum") == b.get("sum"):
            return None
        return f"count {a.get('count')} -> {b.get('count')}, sum {a.get('sum')} -> {b.get('sum')}"
    if a.get("value") == b.get("value"):
        return None
    delta = b["value"] - a["value"]
    return f"{a['value']:g} -> {b['value']:g} ({delta:+g})"


def diff_snapshots(a: dict, b: dict) -> List[Tuple[str, str, str]]:
    """Per-metric deltas between two snapshots.

    Returns ``(metric key, status, delta)`` rows where *status* is one of
    ``only-a``, ``only-b``, ``type-changed`` or ``changed``; metrics equal
    in both snapshots are omitted.  Rows come back sorted by key, so a
    diff of identical snapshots is the empty list.
    """
    a_metrics = a.get("metrics", {})
    b_metrics = b.get("metrics", {})
    rows: List[Tuple[str, str, str]] = []
    for key in sorted(set(a_metrics) | set(b_metrics)):
        entry_a = a_metrics.get(key)
        entry_b = b_metrics.get(key)
        if entry_a is None:
            rows.append((key, "only-b", describe_entry(entry_b)))
            continue
        if entry_b is None:
            rows.append((key, "only-a", describe_entry(entry_a)))
            continue
        if entry_a.get("type") != entry_b.get("type"):
            rows.append(
                (key, "type-changed", f"{entry_a.get('type')} -> {entry_b.get('type')}")
            )
            continue
        if entry_a.get("type") == "series":
            delta = _series_delta(entry_a, entry_b)
        else:
            delta = _scalar_delta(entry_a, entry_b)
        if delta is not None:
            rows.append((key, "changed", delta))
    return rows

