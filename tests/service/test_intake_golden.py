"""Golden intake outcomes: what the gate decided, recorded at the parent commit.

The repo benchmark's ``ServiceConfig`` sets only ``intake_bound``, so none of
its digests ever reads ``IntakeSnapshot.pending_buckets`` through a gate.
These cases do: three catalog scenarios x two admission policies x three
limit sets, the second and third with a ``max_pending_buckets`` chosen so
that the bucket bound alone trips on a real share of gate evaluations.

``tests/fixtures/intake/golden_intake.json`` was recorded from the PR-17
``IntakeModel`` — the one that rebuilt its whole backlog at every event,
now ``tests/service/intake_oracle.py`` — before the incremental model
replaced it.  Re-record (only when the *intended* behaviour changes) with::

    PYTHONPATH=src python -m tests.service.test_intake_golden
"""

import functools
import hashlib
import json
import os

import pytest

from repro.service.admission import AdmissionPolicy, make_admission_policy
from repro.service.frontend import ServiceConfig, ServingFrontEnd
from repro.sim.simulator import SimulationConfig, Simulator
from repro.telemetry.registry import metric_key
from repro.workload.scenarios import build_scenario

GOLDEN_INTAKE = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "intake", "golden_intake.json"
)

QUERY_COUNT = 600
BUCKET_COUNT = 6_000
SEED = 1841

#: Per scenario: the three limit sets, each adding one bound to the last.
SCENARIO_LIMITS = {
    "diurnal_flash_crowd": {
        "bound": {"intake_bound": 330},
        "bound+buckets": {"intake_bound": 330, "max_pending_buckets": 250},
        "bound+buckets+qps": {
            "intake_bound": 330,
            "max_pending_buckets": 250,
            "max_client_qps": 1.5,
        },
    },
    "slow_client_backpressure": {
        "bound": {"intake_bound": 260},
        "bound+buckets": {"intake_bound": 260, "max_pending_buckets": 260},
        "bound+buckets+qps": {
            "intake_bound": 260,
            "max_pending_buckets": 260,
            "max_client_qps": 0.6,
        },
    },
    "heavy_tail": {
        "bound": {"intake_bound": 280},
        "bound+buckets": {"intake_bound": 280, "max_pending_buckets": 1_050},
        "bound+buckets+qps": {
            "intake_bound": 280,
            "max_pending_buckets": 1_050,
            "max_client_qps": 0.09,
        },
    },
}

CASES = [
    (scenario, admission, limits_name)
    for scenario, limit_sets in SCENARIO_LIMITS.items()
    for admission in ("defer", "reject")
    for limits_name in limit_sets
]


class RecordingPolicy(AdmissionPolicy):
    """Delegates to a named policy, keeping every snapshot the gate saw."""

    def __init__(self, name):
        self.inner = make_admission_policy(name)
        self.name = self.inner.name
        self.snapshots = []

    def decide(self, snapshot, limits):
        self.snapshots.append(snapshot)
        return self.inner.decide(snapshot, limits)


def sha256_of(rows) -> str:
    """Digest of a JSON-codable structure (floats round-trip exactly)."""
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def scenario_inputs(scenario: str):
    """The scenario's arrival stream and its site (intake mutates neither)."""
    queries = tuple(build_scenario(scenario, QUERY_COUNT, BUCKET_COUNT, SEED))
    return queries, Simulator(SimulationConfig(bucket_count=BUCKET_COUNT))


def intake_outcome(scenario: str, admission: str, limits_name: str) -> dict:
    """One intake pass (no engine behind it), reduced to digests and counts."""
    queries, simulator = scenario_inputs(scenario)
    policy = RecordingPolicy(admission)
    config = ServiceConfig(
        admission=policy,
        max_defers=8,
        defer_delay_ms=30_000.0,
        seed=SEED,
        **SCENARIO_LIMITS[scenario][limits_name],
    )
    front = ServingFrontEnd(config, simulator.layout, simulator.config.cost)
    outcome = front.admit(queries)
    series = front.telemetry.snapshot()["metrics"][metric_key("series.pending_admissions")]
    breaches = [snapshot.breached(front.limits) for snapshot in policy.snapshots]
    return {
        "admitted": len(outcome.admitted),
        "rejected": len(outcome.rejected),
        "deferrals": outcome.deferrals,
        "gate_evaluations": len(breaches),
        #: Evaluations at which each bound was breached (alone or not).
        "trips": {
            name: sum(name in names for names in breaches)
            for name in ("intake_bound", "max_pending_buckets", "max_client_qps")
        },
        #: Evaluations the bucket bound tripped while the intake bound held.
        "bucket_bound_alone": sum(
            "max_pending_buckets" in names and "intake_bound" not in names for names in breaches
        ),
        "schedule_sha256": sha256_of(
            [(a.query.query_id, a.submit_ms, a.defers) for a in outcome.admitted]
        ),
        "rejected_sha256": sha256_of(
            [(r.query.query_id, r.reason, r.defers) for r in outcome.rejected]
        ),
        "instants_sha256": sha256_of(
            [(i.time_ms, i.query_id, i.outcome, i.attempt) for i in front.admission_records()]
        ),
        "series_sha256": sha256_of(series["samples"]),
        "gate_sha256": sha256_of(
            [
                (s.now_ms, s.queue_depth, s.pending_buckets, s.client_rate_qps)
                for s in policy.snapshots
            ]
        ),
    }


def case_key(scenario: str, admission: str, limits_name: str) -> str:
    return f"{scenario}/{admission}/{limits_name}"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_INTAKE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_exactly_the_case_table(golden):
    assert sorted(golden) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("scenario,admission,limits_name", CASES)
def test_intake_outcome_equals_the_parent_golden(golden, scenario, admission, limits_name):
    expected = golden[case_key(scenario, admission, limits_name)]
    assert intake_outcome(scenario, admission, limits_name) == expected


def test_limit_sets_trip_the_bounds_they_were_chosen_for(golden):
    """The lazy-expiry half of the model is only visible through the bucket bound."""
    for scenario, admission, limits_name in CASES:
        case = golden[case_key(scenario, admission, limits_name)]
        trips, evaluations = case["trips"], case["gate_evaluations"]
        assert case["admitted"] > 0 and case["rejected"] > 0
        if limits_name == "bound":
            assert trips["intake_bound"] > 0
            assert trips["max_pending_buckets"] == trips["max_client_qps"] == 0
        elif limits_name == "bound+buckets":
            assert trips["intake_bound"] > 0
            assert case["bucket_bound_alone"] >= 0.05 * evaluations
        else:
            # Clients shed at the rate gate can keep a *rejecting* front-end's
            # backlog under the other two bounds; a deferring one's cannot.
            assert trips["max_client_qps"] >= 0.05 * evaluations
            if admission == "defer":
                assert trips["intake_bound"] > 0
                assert case["bucket_bound_alone"] >= 0.02 * evaluations


if __name__ == "__main__":
    recorded = {case_key(*case): intake_outcome(*case) for case in CASES}
    os.makedirs(os.path.dirname(GOLDEN_INTAKE), exist_ok=True)
    with open(GOLDEN_INTAKE, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for key, case in sorted(recorded.items()):
        print(
            f"{key}: admitted {case['admitted']} rejected {case['rejected']} "
            f"deferrals {case['deferrals']} trips {case['trips']} bucket-bound-alone "
            f"{case['bucket_bound_alone']}/{case['gate_evaluations']}"
        )
