"""``.lrrun`` run archives: a durable, comparable record of one run.

Gray et al.'s *Scientific Data Management in the Coming Decade* argues
that results are only as useful as the metadata stored alongside them;
an ``.lrrun`` archive is that discipline applied to a LifeRaft run.  One
file carries everything needed to say *what ran and what happened*: the
:class:`~repro.sim.runspec.RunSpec` description, the result summary
(including the ``result_digest``), the merged metrics snapshot (series
included) and the per-query cost ledger.

The container is a struct header (magic ``LRRN``, version, flags, body
length, CRC-32 of the body) in front of one JSON body, framed, published
and rejected through :mod:`repro.fileio`.

:func:`compare_archives` is the ``liferaft compare`` engine: it diffs
two archives per metric (virtual domain only — the real domain is
wall-clock profile and legitimately differs between identical runs) and
per query (through :func:`repro.telemetry.ledger.diff_ledgers`), and
grades the drift: exit code 0 for none, 1 for telemetry/ledger drift,
2 for result-digest drift.  :func:`read_comparable` also takes a bare
metrics snapshot, which carries no spec, ledger or digest: only its
metric section grades.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fileio import (
    FormatError,
    atomic_write,
    check_crc,
    crc32,
    decode_json,
    read_file,
    unpack_header,
)
from repro.telemetry.ledger import diff_ledgers
from repro.telemetry.registry import VIRTUAL_DOMAIN, filter_domain
from repro.telemetry.report import diff_snapshots, load_snapshot

__all__ = [
    "ARCHIVE_MAGIC",
    "ARCHIVE_VERSION",
    "CompareReport",
    "RunArchive",
    "compare_archives",
    "describe_run_spec",
    "read_comparable",
    "read_run_archive",
    "render_compare",
    "summarise_result",
    "write_run_archive",
]

ARCHIVE_MAGIC = b"LRRN"
ARCHIVE_VERSION = 1

#: magic, version, flags, body length, CRC-32 of the body.
_HEADER = struct.Struct("<4sHHQI")


@dataclass(frozen=True)
class RunArchive:
    """The decoded content of one ``.lrrun`` file."""

    #: JSON-safe description of the run's :class:`RunSpec`.
    spec: dict
    #: Result summary: parity fields, response stats, ``result_digest``.
    result: dict
    #: Merged metrics snapshot (``None`` when the run disabled telemetry).
    telemetry: Optional[dict] = None
    #: Per-query cost ledger (``None`` when the run disabled telemetry).
    ledger: Optional[dict] = None
    version: int = ARCHIVE_VERSION

    @property
    def result_digest(self) -> str:
        """The archived run's result digest (empty when unstamped)."""
        return str(self.result.get("result_digest", ""))


#: Result fields copied into the archive summary, in schema order.
_RESULT_FIELDS = (
    "policy_name",
    "alpha",
    "label",
    "backend",
    "workers",
    "store_backend",
    "submitted_queries",
    "completed_queries",
    "makespan_s",
    "busy_time_s",
    "throughput_qps",
    "cache_hit_rate",
    "bucket_services",
    "bucket_reads",
    "total_io_s",
    "total_match_s",
    "steals",
    "result_digest",
)


def describe_run_spec(spec) -> dict:
    """A JSON-safe description of a :class:`RunSpec` for the archive.

    A constructed policy object degrades to its display name;
    the default-store sentinel degrades to ``"default"``.  The point is
    comparability across processes, not reconstruction — ``.lrtr``
    traces are the replayable artifact.
    """
    policy = spec.policy
    if not isinstance(policy, str):
        policy = getattr(policy, "name", type(policy).__name__)
    backend = spec.effective_backend if spec.is_parallel else "serial"
    store_path = spec.store_path
    if not (store_path is None or isinstance(store_path, str)):
        store_path = "default"
    reliability = None
    if spec.reliability is not None:
        reliability = {
            "cadence": getattr(spec.reliability, "cadence", None),
            "window_quantum_ms": getattr(spec.reliability, "window_quantum_ms", None),
        }
    return {
        "policy": policy,
        "alpha": spec.alpha,
        "workers": spec.workers,
        "shard_strategy": spec.shard_strategy,
        "backend": backend,
        "enable_stealing": spec.enable_stealing,
        "steal_quantum_ms": spec.steal_quantum_ms,
        "served_with_admission": spec.service is not None,
        "reliability": reliability,
        "store_path": store_path,
        "label": spec.label,
        "saturation_qps": spec.saturation_qps,
        "series_window_ms": spec.series_window_ms,
    }


def summarise_result(result) -> dict:
    """The archive's result summary for a ``SimulationResult``."""
    summary = {name: getattr(result, name) for name in _RESULT_FIELDS}
    summary["avg_response_time_s"] = result.avg_response_time_s
    summary["response_time_cov"] = result.response_time_cov
    return summary


def write_run_archive(path: str, archive: RunArchive) -> int:
    """Atomically write *archive* as a ``.lrrun`` file; returns byte size."""
    body = json.dumps(
        {
            "spec": archive.spec,
            "result": archive.result,
            "telemetry": archive.telemetry,
            "ledger": archive.ledger,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    header = _HEADER.pack(ARCHIVE_MAGIC, archive.version, 0, len(body), crc32(body))
    return atomic_write(path, header, body)


def read_run_archive(path: str) -> RunArchive:
    """Read and validate a ``.lrrun`` file."""
    what = f"run archive {path!r}"
    raw = read_file(path, what)
    _magic, version, _flags, body_len, crc = unpack_header(
        raw, _HEADER, ARCHIVE_MAGIC, ARCHIVE_VERSION, what
    )
    body = raw[_HEADER.size :]
    if len(body) != body_len:
        raise FormatError(
            f"{what} is truncated: expected {body_len} payload bytes, found {len(body)}"
        )
    check_crc(body, crc, what)
    payload = decode_json(body, what)
    if not isinstance(payload, dict):
        raise FormatError(f"{what} payload is not an object")
    return RunArchive(
        spec=payload.get("spec") or {},
        result=payload.get("result") or {},
        telemetry=payload.get("telemetry"),
        ledger=payload.get("ledger"),
        version=version,
    )


def read_comparable(path: str) -> RunArchive:
    """A ``.lrrun`` archive, or a metrics snapshot as a metrics-only archive."""
    if read_file(path, f"run archive {path!r}").startswith(ARCHIVE_MAGIC):
        return read_run_archive(path)
    return RunArchive(spec={}, result={}, telemetry=load_snapshot(path))


@dataclass(frozen=True)
class CompareReport:
    """What ``liferaft compare A B`` found between two archives."""

    digest_a: str
    digest_b: str
    #: Spec fields that differ (informational — an intentional A/B).
    spec_rows: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Virtual-domain metric/series drift (``diff_snapshots`` rows).
    metric_rows: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Per-query ledger drift (``diff_ledgers`` rows).
    ledger_rows: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def digest_drift(self) -> bool:
        """Whether the deterministic result outcomes differ."""
        return self.digest_a != self.digest_b

    @property
    def telemetry_drift(self) -> bool:
        """Whether any virtual-domain metric or ledger entry differs."""
        return bool(self.metric_rows or self.ledger_rows)

    @property
    def exit_code(self) -> int:
        """0 = no drift, 1 = telemetry/ledger drift, 2 = digest drift."""
        if self.digest_drift:
            return 2
        if self.telemetry_drift:
            return 1
        return 0


def compare_archives(a: RunArchive, b: RunArchive) -> CompareReport:
    """Per-metric and per-query deltas between two run archives.

    Only the virtual domain is compared: real-domain metrics are a wall
    profile and legitimately differ between two runs of the same spec,
    so two identical-spec runs compare clean (the CI self-compare smoke
    asserts exit code 0).
    """
    spec_rows: List[Tuple[str, str, str]] = []
    for key in sorted(set(a.spec) | set(b.spec)):
        value_a = a.spec.get(key)
        value_b = b.spec.get(key)
        if value_a != value_b:
            spec_rows.append((f"spec.{key}", "changed", f"{value_a!r} -> {value_b!r}"))
    metric_rows = diff_snapshots(
        filter_domain(a.telemetry, VIRTUAL_DOMAIN),
        filter_domain(b.telemetry, VIRTUAL_DOMAIN),
    )
    ledger_rows = diff_ledgers(a.ledger or {}, b.ledger or {})
    return CompareReport(
        digest_a=a.result_digest,
        digest_b=b.result_digest,
        spec_rows=spec_rows,
        metric_rows=metric_rows,
        ledger_rows=ledger_rows,
    )


def render_compare(
    report: CompareReport, label_a: str = "a", label_b: str = "b"
) -> str:
    """Human-readable rendering of a :class:`CompareReport`."""
    lines = [f"compare: {label_a} vs {label_b}"]
    if not (report.digest_a or report.digest_b):
        lines.append("  result digest: none (metrics snapshots carry no digest)")
    elif report.digest_drift:
        lines.append(
            f"  result digest DRIFT: {report.digest_a[:16]}... != {report.digest_b[:16]}..."
        )
    else:
        lines.append(f"  result digest match: {report.digest_a[:16]}...")
    for title, rows in (
        ("spec differences", report.spec_rows),
        ("metric drift (virtual domain)", report.metric_rows),
        ("per-query ledger drift", report.ledger_rows),
    ):
        lines.append(f"  {title}: {len(rows)}")
        for key, status, delta in rows:
            lines.append(f"    {key} [{status}] {delta}")
    verdict = {0: "no drift", 1: "telemetry drift", 2: "digest drift"}[
        report.exit_code
    ]
    lines.append(f"  verdict: {verdict} (exit {report.exit_code})")
    return "\n".join(lines)
