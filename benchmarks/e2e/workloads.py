"""The seven benchmark workloads: inputs built from ``--seed``, nothing else.

Each workload's ``build`` does the whole set-up a user would pay before
the first ``Simulator.execute`` call — input generation, capacity probe,
simulator/layout build, store ingest, object conversion — and returns a
:class:`Prepared` run.  The program under test only ever sees the
generated queries and store files.

Sizes are for a 2-core box and a 10 s measuring window: a pass stays
under ~1.3 s so a window holds at least eight of them, and set-up stays
under ~3 s so it can be repeated for a median.  ``smoke=True`` shrinks
every workload to a fraction of a second (tier-1 schema test).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.generator import SkyGenerator, SkyGeneratorConfig
from repro.experiments.common import build_trace, estimate_capacity_qps
from repro.htm.curve import HTMRange, cone_cover
from repro.htm.geometry import SkyPoint
from repro.htm.mesh import HTMMesh
from repro.reliability.config import ReliabilityConfig
from repro.reliability.faults import FaultPlan
from repro.service.frontend import ServiceConfig
from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.storage.ingest import ingest_catalog, materialize_layout
from repro.workload.arrival import PoissonArrivalProcess, apply_arrival_times
from repro.workload.query import CrossMatchObject, CrossMatchQuery
from repro.workload.scenarios import build_scenario

#: Cross-match radius of the full-fidelity join workload.
MATCH_RADIUS_ARCSEC = 3.0


@dataclass
class Prepared:
    """One workload, set up and ready for ``simulator.execute(queries, spec)``."""

    simulator: Simulator
    queries: Sequence[CrossMatchQuery]
    spec: RunSpec
    #: ``(label, spec)`` of an independent configuration whose
    #: ``result_digest`` every measured pass must reproduce bit for bit.
    reference: Optional[Tuple[str, RunSpec]] = None
    #: Wall seconds of the named set-up steps (layer metrics ending ``_s``).
    setup_s: Dict[str, float] = field(default_factory=dict)
    #: Counts the set-up produced (rows ingested, file bytes, objects covered).
    setup_counts: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named workload: why it exists and how to build it from a seed."""

    name: str
    why: str
    #: How many times set-up runs for the ``setup_s`` median; each round
    #: builds one of the input sets the measured passes cycle over.
    setup_rounds: int
    #: Serial-engine workloads get a traced pass; process-backend ones are
    #: measured from outside (reports, rusage, differential passes).
    serial: bool
    build: Callable[[int, str, bool], Prepared]
    #: Extra ``--trace 1`` probes: ``"scheduler"`` (isolated ``next_work``
    #: at fixed depths), ``"speedup_vs_noshare"`` (the paper's virtual claim).
    probes: Tuple[str, ...] = ()


def _timed(sink: Dict[str, float], key: str, call: Callable, *args, **kwargs):
    started = time.perf_counter()
    value = call(*args, **kwargs)
    sink[key] = sink.get(key, 0.0) + time.perf_counter() - started
    return value


def _abstract_site(
    seed: int, query_count: int, bucket_count: int, saturation: float
) -> Tuple[Prepared, float]:
    """An in-memory site and a footprint trace arriving at *saturation* × capacity."""
    timings: Dict[str, float] = {}
    trace = _timed(
        timings,
        "workload.trace_gen_s",
        build_trace,
        "full",
        seed=seed,
        query_count=query_count,
        bucket_count=bucket_count,
    )
    simulator = Simulator(SimulationConfig(bucket_count=bucket_count))
    capacity = _timed(
        timings, "workload.capacity_probe_s", estimate_capacity_qps, trace, simulator
    )
    rate = capacity * saturation
    queries = trace.with_saturation(rate).queries
    return Prepared(simulator, queries, RunSpec(saturation_qps=rate), setup_s=timings), rate


def _sched(saturation: float) -> Callable[[int, str, bool], Prepared]:
    def build(seed: int, workdir: str, smoke: bool) -> Prepared:
        size = (200, 2_000) if smoke else (2_000, 20_000)
        prepared, rate = _abstract_site(seed, *size, saturation)
        prepared.spec = RunSpec(policy="liferaft", alpha=0.25, saturation_qps=rate)
        return prepared

    return build


def _noshare_file_cold(seed: int, workdir: str, smoke: bool) -> Prepared:
    query_count, bucket_count, rows = (150, 64, 64) if smoke else (2_000, 1_024, 512)
    timings: Dict[str, float] = {}
    trace = _timed(
        timings,
        "workload.trace_gen_s",
        build_trace,
        "full",
        seed=seed,
        query_count=query_count,
        bucket_count=bucket_count,
    )
    # Tier-2 off: every tier-1 miss is a physical page read + CRC + decode.
    config = SimulationConfig(bucket_count=bucket_count, page_cache_buckets=0)
    path = os.path.join(workdir, "site.lrbs")
    manifest = _timed(
        timings,
        "storage.ingest_s",
        materialize_layout,
        path,
        Simulator(config).layout,
        rows_per_bucket=rows,
        seed=seed,
    )
    simulator = Simulator.from_store(path, config)
    capacity = _timed(
        timings, "workload.capacity_probe_s", estimate_capacity_qps, trace, simulator
    )
    spec = RunSpec(policy="noshare", saturation_qps=capacity)
    return Prepared(
        simulator,
        trace.with_saturation(capacity).queries,
        spec,
        reference=("in-memory store", spec.with_store(None)),
        setup_s=timings,
        setup_counts={"rows": manifest.total_rows, "file_bytes": manifest.file_bytes},
    )


def _error_circle(obj, mesh: HTMMesh) -> HTMRange:
    """HTM bounding range of *obj*'s match circle (envelope of its cone cover)."""
    ranges = cone_cover(
        SkyPoint(obj.ra, obj.dec), MATCH_RADIUS_ARCSEC / 3600.0, cover_level=12, mesh=mesh
    ).ranges
    if not ranges:
        return HTMRange(obj.htm_id, obj.htm_id)
    return HTMRange(ranges[0].low, ranges[-1].high)


def _crossmatch_file(seed: int, workdir: str, smoke: bool) -> Prepared:
    objects, query_count, per_query = (600, 20, 60) if smoke else (4_000, 300, 300)
    timings: Dict[str, float] = {}
    generator = SkyGenerator(SkyGeneratorConfig(object_count=objects, cluster_count=8, seed=seed))
    base = _timed(timings, "catalog.generate_s", generator.generate, "sdss")
    companion = _timed(
        timings,
        "catalog.generate_s",
        generator.derive_companion,
        base,
        "twomass",
        completeness=0.9,
    )
    path = os.path.join(workdir, "sky.lrbs")
    manifest = _timed(
        timings, "storage.ingest_s", ingest_catalog, path, base, objects_per_bucket=100
    )
    simulator = Simulator.from_store(path)

    mesh = HTMMesh()
    started = time.perf_counter()
    shipped = [
        CrossMatchObject(
            object_id=obj.object_id,
            htm_range=_error_circle(obj, mesh),
            ra=obj.ra,
            dec=obj.dec,
            match_radius_arcsec=MATCH_RADIUS_ARCSEC,
            magnitude=obj.magnitude,
        )
        for obj in companion.rows
    ]
    timings["htm.cover_s"] = time.perf_counter() - started

    # Each query ships a run of HTM-consecutive companion objects: a
    # spatially coherent region touching a handful of buckets.
    rng = random.Random(seed)
    queries: List[CrossMatchQuery] = []
    for query_id in range(query_count):
        first = rng.randrange(0, len(shipped) - per_query)
        queries.append(
            CrossMatchQuery(query_id, objects=tuple(shipped[first : first + per_query]))
        )
    queries = apply_arrival_times(queries, PoissonArrivalProcess(2.0, seed=seed))
    return Prepared(
        simulator,
        queries,
        RunSpec(policy="liferaft", alpha=0.25),
        setup_s=timings,
        setup_counts={
            "rows": manifest.total_rows,
            "file_bytes": manifest.file_bytes,
            "objects_covered": len(shipped),
        },
    )


def _shards_process(seed: int, workdir: str, smoke: bool) -> Prepared:
    size = (150, 1_500) if smoke else (2_000, 20_000)
    prepared, rate = _abstract_site(seed, *size, 1.0)
    # Stealing off: the digest must equal virtual x2 bit for bit.
    prepared.spec = RunSpec(
        backend="process", workers=2, enable_stealing=False, saturation_qps=rate
    )
    prepared.reference = (
        "virtual backend x2",
        RunSpec(backend="virtual", workers=2, enable_stealing=False, saturation_qps=rate),
    )
    return prepared


def _recovery_crash(seed: int, workdir: str, smoke: bool) -> Prepared:
    size = (150, 1_500) if smoke else (1_000, 20_000)
    prepared, rate = _abstract_site(seed, *size, 1.0)
    clean = RunSpec(backend="process", workers=2, enable_stealing=False, saturation_qps=rate)
    tb_ms = prepared.simulator.config.cost.tb_ms
    prepared.spec = RunSpec(
        backend="process",
        workers=2,
        enable_stealing=False,
        saturation_qps=rate,
        # ``checkpoint_dir`` is filled in per pass by the harness so the
        # ``.lrcp`` files land (and are removed) inside the checkout.
        reliability=ReliabilityConfig(
            cadence="windows:4",
            window_quantum_ms=16 * tb_ms,
            faults=FaultPlan.parse("1@2" if smoke else "1@10"),
        ),
    )
    prepared.reference = ("clean process run x2", clean)
    return prepared


def _serve_flash_crowd(seed: int, workdir: str, smoke: bool) -> Prepared:
    query_count, bucket_count, intake_bound = (300, 3_000, 165) if smoke else (2_000, 20_000, 1_100)
    timings: Dict[str, float] = {}
    queries = _timed(
        timings,
        "workload.trace_gen_s",
        build_scenario,
        "diurnal_flash_crowd",
        query_count,
        bucket_count,
        seed,
    )
    simulator = Simulator(SimulationConfig(bucket_count=bucket_count))
    service = ServiceConfig(
        admission="defer",
        intake_bound=intake_bound,
        max_defers=8,
        defer_delay_ms=30_000,
        seed=seed,
    )
    spec = RunSpec(policy="liferaft", alpha=0.25, service=service)
    return Prepared(simulator, queries, spec, setup_s=timings)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "sched_deep",
            "paper scale at 1.0x capacity: the pending set is hundreds of buckets deep, so "
            "LifeRaftScheduler.next_work dominates - the workload a scheduler rewrite must move",
            3,
            True,
            _sched(1.0),
            probes=("scheduler", "speedup_vs_noshare"),
        ),
        Workload(
            "sched_shallow",
            "same trace at 0.4x capacity: queues stay shallow, so ServiceLoop bookkeeping and "
            "telemetry/ledger export carry the pass - the bypass for sched_deep",
            3,
            True,
            _sched(0.4),
            probes=("scheduler",),
        ),
        Workload(
            "noshare_file_cold",
            "the paper's NoShare baseline on a file-backed store with tier-2 off and a working "
            "set far beyond tier-1: storage read+CRC+decode is a third of the pass, ingest is "
            "set-up",
            2,
            True,
            _noshare_file_cold,
        ),
        Workload(
            "crossmatch_file",
            "full-fidelity join of explicit objects against an ingested catalog that fits "
            "tier-2: core.kernels dominates and the scheduler share is small",
            2,
            True,
            _crossmatch_file,
        ),
        Workload(
            "shards_process",
            "the sched_deep trace on two worker processes, stealing off: spawn, import and "
            "pickle over the pipe dominate; digest must equal the virtual backend",
            3,
            False,
            _shards_process,
        ),
        Workload(
            "recovery_crash",
            "two worker processes with checkpoints every 4 windows and one real SIGKILL: "
            "the recovery coordinator's run loop, .lrcp writes, respawn and replay",
            3,
            False,
            _recovery_crash,
        ),
        Workload(
            "serve_flash_crowd",
            "the serving front-end under non-stationary arrivals: deferred admission, result "
            "chunks and deadline scoring around the same engine; a quarter of offered load is shed",
            3,
            True,
            _serve_flash_crowd,
        ),
    )
}
