"""The incremental intake model against the rebuild-everything oracle.

``IntakeModel`` retires in-flight admissions, and the pending buckets only
they still hold, by popping one drain-ordered queue;
``tests/service/intake_oracle.py`` is the model it replaced, which re-tested
the whole backlog at every call.  The state machine drives both through the
same ``admit`` / ``advance`` / ``snapshot`` calls — at times that jump
forward, stand still, land exactly on a drain estimate and step *backwards*
— and compares their state after every step.
"""

from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core.metrics import CostModel
from repro.service.admission import IntakeModel
from tests.service.intake_oracle import OracleIntakeModel

#: A small pool, so that an admission re-referencing a pending bucket — the
#: case lazy expiry exists for — is the common one.
BUCKET = st.integers(min_value=0, max_value=11)
#: Object counts, zero included (a footprint entry that costs only ``Tb``).
OBJECTS = st.sampled_from([0, 0, 1, 3, 40, 2_500])
FOOTPRINTS = st.dictionaries(BUCKET, OBJECTS, min_size=1, max_size=6)
#: ``CostModel`` refuses a zero constant, the intake model does not care: the
#: stand-ins make zero-cost admissions, whose drain estimates tie exactly.
COSTS = st.sampled_from(
    [
        CostModel.paper_defaults(),
        CostModel(tb_ms=1.0, tm_ms=1.0),
        CostModel(tb_ms=50.0, tm_ms=0.001),
        SimpleNamespace(tb_ms=1_000.0, tm_ms=0.0),
        SimpleNamespace(tb_ms=0.0, tm_ms=0.0),
    ]
)
#: Clock moves in units of one bucket read: mostly forward, often none at
#: all, sometimes back past several admissions.
MOVES = st.sampled_from([0.0, 0.0, 0.0, 0.25, 1.0, 1.0, 2.5, 7.0, 40.0, -0.25, -3.0, -40.0])


def check_retirement_queue(model: IntakeModel) -> None:
    """The queue is in drain order and every pending bucket has a holder in it."""
    in_flight = [drain for drain, _query_id, _buckets in model._in_flight]
    assert in_flight == sorted(in_flight)
    held = {(drain, bucket) for drain, _query_id, buckets in model._in_flight for bucket in buckets}
    for bucket, drain in model._bucket_drain_ms.items():
        assert (drain, bucket) in held, f"bucket {bucket} can never expire"


class IntakeModelMachine(RuleBasedStateMachine):
    """One incremental model and one oracle, fed the same calls."""

    def __init__(self):
        super().__init__()
        self.now_ms = 0.0
        self.next_query_id = 0
        self.drains = []

    @initialize(cost=COSTS)
    def build(self, cost):
        self.unit_ms = cost.tb_ms or 1.0
        self.model = IntakeModel(cost)
        self.oracle = OracleIntakeModel(cost)

    def move(self, units: float) -> float:
        self.now_ms += units * self.unit_ms
        return self.now_ms

    @rule(footprint=FOOTPRINTS, move=MOVES)
    def admit(self, footprint, move):
        now_ms = self.move(move)
        drain = self.model.admit(self.next_query_id, footprint, now_ms)
        assert drain == self.oracle.admit(self.next_query_id, footprint, now_ms)
        self.drains.append(drain)
        self.next_query_id += 1

    @rule(move=MOVES)
    def advance(self, move):
        now_ms = self.move(move)
        self.model.advance(now_ms)
        self.oracle.advance(now_ms)

    @rule(move=MOVES, rate=st.sampled_from([0.0, 0.5, 12.0]))
    def snapshot(self, move, rate):
        now_ms = self.move(move)
        assert self.model.snapshot(now_ms, rate) == self.oracle.snapshot(now_ms, rate)

    @precondition(lambda self: self.drains)
    @rule(data=st.data(), nudge=st.sampled_from([0.0, 0.0, -1e-9, 1e-9]))
    def land_on_a_drain_estimate(self, data, nudge):
        """``drain <= now`` retires, ``drain > now`` does not: stand on the edge."""
        self.now_ms = data.draw(st.sampled_from(self.drains)) + nudge
        assert self.model.snapshot(self.now_ms, 0.0) == self.oracle.snapshot(self.now_ms, 0.0)

    @invariant()
    def state_equals_the_oracle(self):
        assert self.model.pending_admissions() == self.oracle.pending_admissions()
        admissions = [(drain, query_id) for drain, query_id, _buckets in self.model._in_flight]
        assert admissions == self.oracle._in_flight
        assert self.model._bucket_drain_ms == self.oracle._bucket_drain_ms
        assert self.model._busy_until_ms == self.oracle._busy_until_ms
        check_retirement_queue(self.model)


TestIntakeModelAgainstOracle = IntakeModelMachine.TestCase
TestIntakeModelAgainstOracle.settings = settings(stateful_step_count=80, deadline=None)


class TestLazyBucketExpiry:
    def test_bookkeeping_is_bounded_by_the_in_flight_footprints(self):
        """A hot bucket every admission re-references leaves no residue behind.

        Arrivals outpace the lane (22 ms of work every 12 ms), so the backlog
        grows; the model holds one queue entry per in-flight admission and
        one pending bucket each plus the shared one — nothing older.
        """
        model = IntakeModel(CostModel(tb_ms=10.0, tm_ms=1.0))
        for query_id in range(500):
            now_ms = 12.0 * query_id
            state = model.snapshot(now_ms, 0.0)
            assert state.pending_buckets == state.queue_depth + bool(state.queue_depth)
            assert len(model._in_flight) == state.queue_depth
            model.admit(query_id, {0: 1, 1 + query_id: 1}, now_ms)
        assert state.queue_depth > 200
        model.advance(1e12)
        assert not model._in_flight and not model._bucket_drain_ms
