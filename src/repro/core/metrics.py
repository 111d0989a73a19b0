"""The cost model behind the scheduling metrics: workload throughput and aged
workload throughput.

Equation (1) of the paper defines the **workload throughput** of bucket
``B_i`` as::

            sum_j W_i^j
    Ut(i) = ----------------------------------
            Tb * phi(i)  +  Tm * sum_j W_i^j

where ``sum_j W_i^j`` is the size of the bucket's workload queue (pending
cross-match objects), ``Tb`` is the time to read a bucket from disk, ``Tm``
the time to match one object in memory, and ``phi(i)`` is 0 when the bucket
is already resident in the cache and 1 otherwise.  ``Ut`` is the rate at
which objects would be consumed if the bucket were serviced now.

Equation (2) blends contention with starvation resistance — the **aged
workload throughput**::

    Ua(i) = Ut(i) * (1 - alpha) + A(i) * alpha

with ``A(i)`` the age of the oldest request in the queue and ``alpha`` in
``[0, 1]`` biasing between pure contention (0) and pure arrival order (1).

The paper leaves the two terms in their natural units (objects/ms vs. ms),
in which case any non-zero α is quickly dominated by the age term.  To make
intermediate α values meaningful — the published evaluation clearly shows
graded behaviour at α = 0.25/0.5/0.75 — the scheduler also offers a
*normalised* combination: ``Ut`` is scaled by its upper bound ``1/Tm`` and
``A`` by the current maximum pending age, so both terms live in ``[0, 1]``.
Normalisation is the default; the raw combination is available for
comparison (``SchedulerConfig.normalize_metric=False``) and is exercised by
the ablation bench.  ``repro.core.scheduler``'s ``throughput_term`` and
``age_term`` (``Ua`` is their sum) are the one place either is evaluated;
this module holds the cost constants both equations read.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's empirically derived constants (§5): reading one 40 MB bucket
#: costs 1.2 seconds; matching one object in memory costs 0.13 milliseconds.
PAPER_TB_MS = 1_200.0
PAPER_TM_MS = 0.13


@dataclass(frozen=True)
class CostModel:
    """The cost constants that drive scheduling and simulation.

    Attributes
    ----------
    tb_ms:
        Cost of reading one bucket from disk with a sequential scan (``Tb``).
    tm_ms:
        Cost of cross-matching one object against an in-memory bucket (``Tm``).
    index_probe_ms:
        Cost of cross-matching one object through the spatial index instead
        of a scan (a handful of random I/Os).  Drives the hybrid join
        strategy and the IndexOnly baseline.
    bucket_objects:
        Number of objects per bucket; used to express the hybrid-join
        threshold as a fraction of the bucket.
    bucket_megabytes:
        On-disk bucket size (informational; ``tb_ms`` already reflects it).
    """

    tb_ms: float = PAPER_TB_MS
    tm_ms: float = PAPER_TM_MS
    index_probe_ms: float = 4.2
    bucket_objects: int = 10_000
    bucket_megabytes: float = 40.0

    def __post_init__(self) -> None:
        if self.tb_ms <= 0 or self.tm_ms <= 0:
            raise ValueError("Tb and Tm must be positive")
        if self.index_probe_ms <= 0:
            raise ValueError("index_probe_ms must be positive")
        if self.bucket_objects <= 0:
            raise ValueError("bucket_objects must be positive")

    @classmethod
    def paper_defaults(cls) -> "CostModel":
        """The constants measured on the paper's SDSS testbed."""
        return cls()

    # ------------------------------------------------------------------ #
    # elementary costs
    # ------------------------------------------------------------------ #

    def scan_cost_ms(self, queue_objects: int, in_memory: bool) -> float:
        """Cost of servicing a workload queue with a sequential bucket scan."""
        if queue_objects < 0:
            raise ValueError("queue size cannot be negative")
        io = 0.0 if in_memory else self.tb_ms
        return io + self.tm_ms * queue_objects

    def index_cost_ms(self, queue_objects: int) -> float:
        """Cost of servicing a workload queue with per-object index probes."""
        if queue_objects < 0:
            raise ValueError("queue size cannot be negative")
        return self.index_probe_ms * queue_objects

    def breakeven_queue_objects(self) -> float:
        """Queue size at which an indexed join and a cold scan cost the same.

        Solving ``index_probe_ms * W = Tb + Tm * W`` for ``W``; with the
        paper's constants this lands near 3 % of a 10,000-object bucket,
        matching Figure 2's break-even point.
        """
        denominator = self.index_probe_ms - self.tm_ms
        if denominator <= 0:
            return float("inf")
        return self.tb_ms / denominator

    def breakeven_fraction(self) -> float:
        """Break-even queue size expressed as a fraction of the bucket."""
        return self.breakeven_queue_objects() / self.bucket_objects
