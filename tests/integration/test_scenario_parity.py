"""Scenario-parity suite: recorded traces replay bit-identically everywhere.

Each shard is a pure function of its admitted arrival schedule, so a
trace recorded from one run must reproduce the same result digest on
every backend at the same execution shape.  This suite pins that
contract three ways: fresh record/replay round trips, cross-backend
replays of the committed ``.lrtr`` fixtures, and replays through a
different worker count where only completion — not the digest — is
guaranteed.
"""

from pathlib import Path

import pytest

from repro.sim.runspec import RunSpec
from repro.sim.simulator import SimulationConfig, Simulator
from repro.workload.generator import TraceConfig, TraceGenerator
from repro.workload.replay import load_replay
from repro.workload.trace_io import read_trace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "scenarios"
COMMITTED = sorted(FIXTURES.glob("*.lrtr"))


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    """A trace freshly recorded from a serial ``Simulator.execute`` run."""
    path = str(tmp_path_factory.mktemp("traces") / "fresh.lrtr")
    trace = TraceGenerator(TraceConfig(query_count=60, bucket_count=128, seed=77)).generate()
    simulator = Simulator(SimulationConfig(bucket_count=128))
    result = simulator.execute(
        trace.with_saturation(3.0).queries, RunSpec(alpha=0.25, record_trace=path)
    )
    return path, result


class TestRecordReplayRoundTrip:
    def test_trace_file_carries_the_run(self, recorded_trace):
        path, result = recorded_trace
        trace = read_trace(path)
        assert len(trace) == 60
        assert trace.expected_digest == result.result_digest

    def test_serial_replay_is_bit_identical(self, recorded_trace):
        path, result = recorded_trace
        outcome = load_replay(path).execute()
        assert outcome.digest_checked
        assert outcome.digest_matches
        assert outcome.result.completed_queries == result.completed_queries

    def test_virtual_replay_is_bit_identical(self, recorded_trace):
        path, _ = recorded_trace
        outcome = load_replay(path, backend="virtual").execute()
        assert outcome.digest_checked
        assert outcome.digest_matches

    def test_process_replay_is_bit_identical(self, recorded_trace):
        path, _ = recorded_trace
        outcome = load_replay(path, backend="process").execute()
        assert outcome.digest_checked
        assert outcome.digest_matches

    def test_other_worker_count_completes_but_skips_digest(self, recorded_trace):
        path, result = recorded_trace
        outcome = load_replay(path, workers=2, backend="virtual").execute()
        assert not outcome.digest_checked
        assert outcome.result.completed_queries == result.completed_queries


class TestCommittedFixtures:
    def test_fixtures_are_committed(self):
        assert len(COMMITTED) >= 2

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
    def test_fixture_replays_bit_identically(self, path):
        outcome = load_replay(str(path)).execute()
        assert outcome.trace.meta["scenario"] == path.stem
        assert outcome.digest_checked
        assert outcome.digest_matches

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
    def test_fixture_replays_bit_identically_on_virtual(self, path):
        outcome = load_replay(str(path), backend="virtual").execute()
        assert outcome.digest_checked
        assert outcome.digest_matches
