"""Deterministic telemetry: metrics, series, spans, ledgers, archives.

The subsystem has six parts:

* :mod:`repro.telemetry.registry` — labelled counters, gauges,
  fixed-bound histograms and windowed time series split into a
  virtual-time domain (bit-identical across execution backends) and a
  real-time domain (wall profile);
* :mod:`repro.telemetry.spans` — per-shard span tracing and per-query
  causal flows exported as Chrome-trace-format JSON
  (``chrome://tracing``/Perfetto-loadable);
* :mod:`repro.telemetry.ledger` — the per-query cost ledger: each
  query's makespan decomposed into admission/queue/service/IO
  components with batching sharing attribution;
* :mod:`repro.telemetry.archive` — versioned ``.lrrun`` run archives
  and the ``liferaft compare`` drift engine;
* :mod:`repro.telemetry.inspect` — the ``liferaft inspect`` summary;
* :mod:`repro.telemetry.report` — the ``liferaft report`` renderer and
  the ``liferaft inspect --diff`` snapshot comparison.

The design contract is **zero perturbation**: instrumentation never
feeds scheduling decisions or the result digest, so a run's
``result_digest`` is identical with telemetry enabled or disabled (the
telemetry parity suite pins that down).
"""

from repro.telemetry.archive import (
    ArchiveFormatError,
    CompareReport,
    RunArchive,
    compare_archives,
    read_run_archive,
    render_compare,
    write_run_archive,
)
from repro.telemetry.inspect import domain_counts, load_snapshot, summary_rows
from repro.telemetry.ledger import (
    build_run_ledger,
    diff_ledgers,
    ledger_entries,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REAL_DOMAIN,
    SNAPSHOT_VERSION,
    Series,
    VIRTUAL_DOMAIN,
    empty_snapshot,
    filter_domain,
    merge_snapshots,
    metric_key,
    metric_value,
    snapshot_from_json,
    snapshot_to_json,
)
from repro.telemetry.report import (
    diff_snapshots,
    render_diff,
    render_report,
    report_to_json,
)
from repro.telemetry.spans import build_chrome_trace, validate_chrome_trace, write_chrome_trace

__all__ = [
    "ArchiveFormatError",
    "CompareReport",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REAL_DOMAIN",
    "RunArchive",
    "SNAPSHOT_VERSION",
    "Series",
    "VIRTUAL_DOMAIN",
    "build_chrome_trace",
    "build_run_ledger",
    "compare_archives",
    "diff_ledgers",
    "diff_snapshots",
    "domain_counts",
    "empty_snapshot",
    "filter_domain",
    "ledger_entries",
    "load_snapshot",
    "merge_snapshots",
    "metric_key",
    "metric_value",
    "read_run_archive",
    "render_compare",
    "render_diff",
    "render_report",
    "report_to_json",
    "snapshot_from_json",
    "snapshot_to_json",
    "summary_rows",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_run_archive",
]
