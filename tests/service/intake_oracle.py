"""Reference implementation of the intake capacity model: rebuild the backlog.

This is ``IntakeModel`` as it stood before it retired work incrementally —
``advance`` re-tests every in-flight admission and every pending bucket with
a comprehension at every event — moved here verbatim.  Nothing in ``src/``
calls it; tests drive it beside the incremental model, step for step.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.core.metrics import CostModel
from repro.service.admission import IntakeSnapshot


class OracleIntakeModel:
    """Gateway-side capacity model estimating backlog from admissions.

    Each admitted query charges its estimated no-sharing service cost
    (``Tb`` per distinct bucket plus ``Tm`` per object) to a single
    virtual service lane; the query counts as *in flight* until the
    lane's clock passes its estimated drain time, and every bucket it
    references counts as *pending* until the same moment.  Deliberately
    engine-free: an intake gate that consulted live engine state would
    make admission depend on the execution backend.
    """

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost
        self._busy_until_ms = 0.0
        #: (estimated drain time, query id) of each in-flight admission.
        self._in_flight: List[Tuple[float, int]] = []
        #: Estimated drain time per referenced bucket.
        self._bucket_drain_ms: Dict[int, float] = {}

    def estimate_cost_ms(self, footprint: Mapping[int, int]) -> float:
        """No-sharing service estimate of one query's footprint."""
        buckets = len(footprint)
        objects = sum(footprint.values())
        return buckets * self.cost.tb_ms + objects * self.cost.tm_ms

    def advance(self, now_ms: float) -> None:
        """Retire in-flight work whose estimated drain time has passed."""
        if self._in_flight:
            self._in_flight = [item for item in self._in_flight if item[0] > now_ms]
        if self._bucket_drain_ms:
            self._bucket_drain_ms = {
                bucket: drain
                for bucket, drain in self._bucket_drain_ms.items()
                if drain > now_ms
            }

    def pending_admissions(self) -> int:
        """Admitted queries the model still counts as in flight."""
        return len(self._in_flight)

    def snapshot(self, now_ms: float, client_rate_qps: float) -> IntakeSnapshot:
        """The intake state an arrival at *now_ms* is gated against."""
        self.advance(now_ms)
        return IntakeSnapshot(
            now_ms=now_ms,
            queue_depth=len(self._in_flight),
            pending_buckets=len(self._bucket_drain_ms),
            client_rate_qps=client_rate_qps,
        )

    def admit(self, query_id: int, footprint: Mapping[int, int], now_ms: float) -> float:
        """Charge one admitted query to the lane; returns its drain estimate."""
        self._busy_until_ms = max(self._busy_until_ms, now_ms) + self.estimate_cost_ms(footprint)
        self._in_flight.append((self._busy_until_ms, query_id))
        for bucket in footprint:
            drain = self._bucket_drain_ms.get(bucket)
            if drain is None or drain < self._busy_until_ms:
                self._bucket_drain_ms[bucket] = self._busy_until_ms
        return self._busy_until_ms
