"""Scenario SLA envelopes: committed expected-outcome fixtures per scenario.

A ``.lrtr`` trace pins a scenario's raw virtual-clock digest; an
**envelope** pins what the *serving* layer makes of it — admission rates,
per-deadline-class SLA attainment and completion counts of one canonical
serving replay.  Every :data:`~repro.workload.scenarios.SCENARIOS` catalog
entry carries one committed JSON fixture under
``tests/fixtures/envelopes/``, and CI re-derives each envelope and fails
on any drift.  The serving run is a pure function of
``(scenario, query_count, bucket_count, seed)`` — admission decisions,
deadline-class draws and the virtual clock are all deterministic — so the
comparison is exact equality, not a tolerance band.

Ratcheting is deliberate: when a code change legitimately shifts an
envelope (say, an admission-control fix sheds fewer queries), re-record
the fixtures with ``liferaft envelopes --record`` and commit the diff —
the review then shows exactly which SLA numbers moved and by how much.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.fileio import FormatError, atomic_write, decode_json, read_file
from repro.workload.scenarios import SCENARIOS, build_scenario

__all__ = [
    "DEFAULT_ENVELOPE_DIR",
    "ENVELOPE_VERSION",
    "check_envelope",
    "compute_envelope",
    "envelope_path",
    "read_envelope",
    "write_envelope",
]

#: Where the committed fixtures live, relative to the repo root.
DEFAULT_ENVELOPE_DIR = "tests/fixtures/envelopes"

ENVELOPE_VERSION = 1

#: The canonical serving gate every envelope is derived under: defer-based
#: backpressure with a bounded intake, so admission control actually sheds
#: and defers under the adversarial arrival patterns.
_ENVELOPE_INTAKE_BOUND = 48


def _serving_config(seed: int):
    from repro.service.frontend import ServiceConfig

    return ServiceConfig(admission="defer", intake_bound=_ENVELOPE_INTAKE_BOUND, seed=seed)


def compute_envelope(
    name: str,
    query_count: Optional[int] = None,
    bucket_count: Optional[int] = None,
    seed: Optional[int] = None,
) -> dict:
    """Run the named scenario's canonical serving replay and summarise it.

    The returned dict is the envelope fixture: plain JSON-serialisable
    admission/completion/SLA tallies plus the run's ``result_digest``.
    """
    # Imported lazily: ``sim`` imports the workload package at module level.
    from repro.sim.runspec import RunSpec
    from repro.sim.simulator import SimulationConfig, Simulator

    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    scenario = SCENARIOS[name]
    resolved_queries = (
        query_count if query_count is not None else scenario.default_query_count
    )
    resolved_buckets = (
        bucket_count if bucket_count is not None else scenario.default_bucket_count
    )
    resolved_seed = seed if seed is not None else scenario.default_seed
    queries = build_scenario(name, resolved_queries, resolved_buckets, resolved_seed)
    simulator = Simulator(SimulationConfig(bucket_count=resolved_buckets))
    result = simulator.execute(
        queries,
        RunSpec(label=name, service=_serving_config(resolved_seed)),
    )
    serving = result.serving
    assert serving is not None  # the spec configured a front-end
    sla: Dict[str, Dict[str, int]] = {
        class_name: {
            "admitted": admitted,
            "rejected": rejected,
            "completed": completed,
            "first_result_hit_rate": round(first_rate, 6),
            "completion_hit_rate": round(completion_rate, 6),
        }
        for class_name, admitted, rejected, completed, first_rate, completion_rate in (
            serving.deadline_rows
        )
    }
    return {
        "version": ENVELOPE_VERSION,
        "scenario": name,
        "query_count": resolved_queries,
        "bucket_count": resolved_buckets,
        "seed": resolved_seed,
        "admission": {
            "offered": serving.offered,
            "admitted": serving.admitted,
            "rejected": serving.rejected,
            "deferrals": serving.deferrals,
            "rejection_rate": round(serving.rejection_rate, 6),
        },
        "completion": {
            "completed": serving.completed,
            "chunks": serving.chunks,
        },
        "sla": sla,
        "result_digest": result.result_digest,
    }


def envelope_path(name: str, directory: str = DEFAULT_ENVELOPE_DIR) -> str:
    """The fixture file of the named scenario under *directory*."""
    return os.path.join(directory, f"{name}.json")


def write_envelope(envelope: dict, directory: str = DEFAULT_ENVELOPE_DIR) -> str:
    """Commit an envelope fixture (stable key order, trailing newline)."""
    os.makedirs(directory, exist_ok=True)
    path = envelope_path(envelope["scenario"], directory)
    atomic_write(path, json.dumps(envelope, indent=2, sort_keys=True).encode("utf-8"), b"\n")
    return path


def read_envelope(name: str, directory: str = DEFAULT_ENVELOPE_DIR) -> dict:
    """Load the committed fixture of the named scenario."""
    path = envelope_path(name, directory)
    what = f"envelope {path!r}"
    envelope = decode_json(read_file(path, what), what)
    version = envelope.get("version") if isinstance(envelope, dict) else None
    if version != ENVELOPE_VERSION:
        raise FormatError(f"{what} has version {version!r}, expected {ENVELOPE_VERSION}")
    return envelope


def check_envelope(name: str, directory: str = DEFAULT_ENVELOPE_DIR) -> List[str]:
    """Re-derive the named scenario's envelope and diff it against the fixture.

    Returns a list of human-readable mismatch lines — empty means the
    committed envelope still holds exactly.
    """
    expected = read_envelope(name, directory)
    actual = compute_envelope(
        name,
        query_count=expected["query_count"],
        bucket_count=expected["bucket_count"],
        seed=expected["seed"],
    )
    mismatches: List[str] = []

    def compare(path: str, want, got) -> None:
        if isinstance(want, dict) and isinstance(got, dict):
            for key in sorted(set(want) | set(got)):
                compare(f"{path}.{key}" if path else key, want.get(key), got.get(key))
        elif want != got:
            mismatches.append(f"{name}: {path}: expected {want!r}, got {got!r}")

    compare("", expected, actual)
    return mismatches
