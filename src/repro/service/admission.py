"""Admission control: reject-or-defer policies over the intake state.

The front-end gates every arrival against three bounds before the engines
ever see it:

* the **bounded intake queue** — queries admitted but (by the intake
  capacity model's estimate) not yet drained; its depth may not exceed
  ``intake_bound``;
* the **pending-bucket backlog** — distinct buckets the admitted-but-not-
  drained queries still reference, bounded by ``max_pending_buckets``;
* the **per-client offered rate**, bounded by ``max_client_qps``.

The capacity model (:class:`IntakeModel`) estimates drain times with the
engine's own :class:`~repro.core.metrics.CostModel` — one bucket read plus
one in-memory match per object, no sharing — which makes it conservative
and, crucially, a *pure function of the admitted arrival stream*.  That
purity is what keeps admission decisions identical across the serial
engine and both execution backends: no live engine state leaks into the
gate, so one intake pass produces one admitted schedule that every
backend replays bit-for-bit.

Three policies interpret a breached bound: :class:`AdmitAll` waves the
query through (measurement mode), :class:`RejectPolicy` refuses it, and
:class:`DeferPolicy` applies backpressure — the arrival is re-enqueued as
a ``CONTROL`` retry event and re-evaluated after a configured delay, up
to a retry budget, after which it is rejected.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Tuple, Type, Union

from repro.core.metrics import CostModel

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionDecision",
    "AdmissionLimits",
    "AdmissionPolicy",
    "AdmitAll",
    "DeferPolicy",
    "IntakeModel",
    "IntakeSnapshot",
    "RejectPolicy",
    "make_admission_policy",
]


class AdmissionDecision(enum.Enum):
    """What the gate decided for one arrival."""

    ADMIT = "admit"
    REJECT = "reject"
    DEFER = "defer"


@dataclass(frozen=True)
class AdmissionLimits:
    """The configured bounds the gate enforces (``None`` = unbounded)."""

    intake_bound: Optional[int] = None
    max_pending_buckets: Optional[int] = None
    max_client_qps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.intake_bound is not None and self.intake_bound <= 0:
            raise ValueError("intake_bound must be positive when set")
        if self.max_pending_buckets is not None and self.max_pending_buckets <= 0:
            raise ValueError("max_pending_buckets must be positive when set")
        if self.max_client_qps is not None and self.max_client_qps <= 0:
            raise ValueError("max_client_qps must be positive when set")


@dataclass(frozen=True)
class IntakeSnapshot:
    """The intake state one admission decision is made against."""

    now_ms: float
    #: Admitted queries the capacity model estimates are still in flight.
    queue_depth: int
    #: Distinct buckets those in-flight queries reference.
    pending_buckets: int
    #: The offering client's measured rate over the trailing window.
    client_rate_qps: float

    def breached(self, limits: AdmissionLimits) -> List[str]:
        """Names of the limits this snapshot exceeds (empty = admissible)."""
        breached: List[str] = []
        if limits.intake_bound is not None and self.queue_depth >= limits.intake_bound:
            breached.append("intake_bound")
        if (
            limits.max_pending_buckets is not None
            and self.pending_buckets >= limits.max_pending_buckets
        ):
            breached.append("max_pending_buckets")
        if limits.max_client_qps is not None and self.client_rate_qps > limits.max_client_qps:
            breached.append("max_client_qps")
        return breached


class AdmissionPolicy(ABC):
    """Strategy interface: turn a snapshot plus limits into a decision."""

    name: str = "abstract"

    @abstractmethod
    def decide(self, snapshot: IntakeSnapshot, limits: AdmissionLimits) -> AdmissionDecision:
        """Decide what happens to the arrival described by *snapshot*."""


class AdmitAll(AdmissionPolicy):
    """No gate: every arrival is admitted (the measurement default)."""

    name = "admit"

    def decide(self, snapshot: IntakeSnapshot, limits: AdmissionLimits) -> AdmissionDecision:
        return AdmissionDecision.ADMIT


class RejectPolicy(AdmissionPolicy):
    """Load shedding: refuse arrivals that breach any limit."""

    name = "reject"

    def decide(self, snapshot: IntakeSnapshot, limits: AdmissionLimits) -> AdmissionDecision:
        if snapshot.breached(limits):
            return AdmissionDecision.REJECT
        return AdmissionDecision.ADMIT


class DeferPolicy(AdmissionPolicy):
    """Backpressure: retry breached arrivals later instead of shedding."""

    name = "defer"

    def decide(self, snapshot: IntakeSnapshot, limits: AdmissionLimits) -> AdmissionDecision:
        if snapshot.breached(limits):
            return AdmissionDecision.DEFER
        return AdmissionDecision.ADMIT


#: Registry of admission policies by name.
ADMISSION_POLICIES: Dict[str, Type[AdmissionPolicy]] = {
    AdmitAll.name: AdmitAll,
    RejectPolicy.name: RejectPolicy,
    DeferPolicy.name: DeferPolicy,
}


def make_admission_policy(policy: Union[str, AdmissionPolicy]) -> AdmissionPolicy:
    """Resolve a policy instance from a name or pass an instance through."""
    if isinstance(policy, AdmissionPolicy):
        return policy
    if policy not in ADMISSION_POLICIES:
        raise ValueError(
            f"unknown admission policy {policy!r}; available: {sorted(ADMISSION_POLICIES)}"
        )
    return ADMISSION_POLICIES[policy]()


class IntakeModel:
    """Gateway-side capacity model estimating backlog from admissions.

    Each admitted query charges its estimated no-sharing service cost
    (``Tb`` per distinct bucket plus ``Tm`` per object) to a single
    virtual service lane; the query counts as *in flight* until the
    lane's clock passes its estimated drain time, and every bucket it
    references counts as *pending* until the same moment.  Deliberately
    engine-free: an intake gate that consulted live engine state would
    make admission depend on the execution backend.

    **Cost.**  The gate is consulted at every event of the intake loop —
    arrivals, ``CONTROL`` retries and series barriers — so it must not
    cost a pass over the backlog each time.  It rests on one invariant:
    drain estimates are **non-decreasing in admission order**
    (``busy_until = max(busy_until, now) + cost`` with ``cost >= 0``, for
    any ``now``, in order or not).  The in-flight queue is therefore
    already sorted by drain time, "retire everything whose drain has
    passed" is "pop from the left while the head's drain ``<= now``", and
    every admission is pushed once and popped once: ``advance`` and
    ``snapshot`` are amortised O(1) per event, ``admit`` is O(buckets in
    the footprint).  Bucket expiry is *lazy*: a retiring admission takes
    a bucket with it only if the dict still holds the admission's own
    drain — a later admission that re-referenced the bucket moved it on.
    ``tests/service/intake_oracle.py`` keeps the rebuild-everything
    version this replaced; a state machine drives the two side by side.
    """

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost
        self._busy_until_ms = 0.0
        #: (estimated drain time, query id, referenced buckets) of each
        #: in-flight admission, in admission order — which is drain order.
        self._in_flight: Deque[Tuple[float, int, Tuple[int, ...]]] = deque()
        #: Estimated drain time per referenced bucket (that of the last
        #: admission to reference it); its ``len`` is the pending-bucket
        #: backlog.
        self._bucket_drain_ms: Dict[int, float] = {}

    def estimate_cost_ms(self, footprint: Mapping[int, int]) -> float:
        """No-sharing service estimate of one query's footprint."""
        buckets = len(footprint)
        objects = sum(footprint.values())
        return buckets * self.cost.tb_ms + objects * self.cost.tm_ms

    def advance(self, now_ms: float) -> None:
        """Retire in-flight work whose estimated drain time has passed."""
        in_flight = self._in_flight
        drains = self._bucket_drain_ms
        while in_flight and in_flight[0][0] <= now_ms:
            drain, _query_id, buckets = in_flight.popleft()
            for bucket in buckets:
                # A later admission that re-referenced the bucket moved its
                # drain past this one's: only the last reference retires it.
                if drains.get(bucket) == drain:
                    del drains[bucket]

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
        drain_ms = max(self._busy_until_ms, now_ms) + self.estimate_cost_ms(footprint)
        self._busy_until_ms = drain_ms
        buckets = tuple(footprint)
        self._in_flight.append((drain_ms, query_id, buckets))
        # No recorded drain is later than this one: every bucket moves to it.
        drains = self._bucket_drain_ms
        for bucket in buckets:
            drains[bucket] = drain_ms
        return drain_ms
