"""Benchmarks of the serving gate's capacity model against the backlog depth.

``IntakeModel`` is consulted at every event of the intake loop — arrival,
``CONTROL`` retry, series barrier — so one consultation must not cost a
pass over the admitted-but-undrained backlog.  What is ratcheted is the
*shape*: ``intake_growth_16x`` — microseconds per event at 4,096 in-flight
admissions over microseconds at 256, a dimensionless number that is the
same on a fast and a slow machine (rebuilding the backlog at every event
reads ≈ 16 here, retiring it incrementally ≈ 1) — and, beside it, the
absolute ``intake_us_per_event_at_4096``.  ``BENCH_service.json`` at the
repository root is the committed baseline (``--bench-json``; compare with
``benchmarks.ratchet``).  Both figures sit within a few per cent of what a
quiet run reads, so the baseline holds the *worst* of the repeats taken on
the machine that recorded it, not one run: the ratchet's tolerance is for
the difference between machines, and the hard ``<= 3`` below is the guard
on the shape.
"""

import time

from repro.core.metrics import CostModel
from repro.service.admission import IntakeModel, IntakeSnapshot

#: An event may cost at most this many times more at 16× the backlog.
MAX_GROWTH_16X = 3.0

#: Four bucket reads plus four object matches: exactly 5 ms per admission,
#: so drain estimates and the arrival clock stay on a 5 ms grid.
COST = CostModel(tb_ms=1.0, tm_ms=0.25)
STEP_MS = 5.0
#: An arrival and two deferred retries look at the gate in the same instant.
SNAPSHOTS_PER_STEP = 3


class SteadyBacklog:
    """A gate in steady state: per step one admission retires and one enters.

    Admission *i* references buckets ``3i .. 3i+3``, so it shares one bucket
    with its successor (the re-reference the lazy bucket expiry exists for)
    and the pending-bucket set is three times as deep as the in-flight one.
    """

    def __init__(self, in_flight: int) -> None:
        self.model = IntakeModel(COST)
        self.admitted = 0
        self.now_ms = 0.0
        for _ in range(in_flight):
            self.admit()

    def admit(self) -> None:
        first = 3 * self.admitted
        footprint = {first: 1, first + 1: 1, first + 2: 1, first + 3: 1}
        self.model.admit(self.admitted, footprint, self.now_ms)
        self.admitted += 1

    def step(self) -> IntakeSnapshot:
        """Move the clock one admission's worth, look three times, admit one."""
        self.now_ms += STEP_MS
        for _ in range(SNAPSHOTS_PER_STEP):
            state = self.model.snapshot(self.now_ms, 0.0)
        self.admit()
        return state


def event_us(backlogs, samples: int = 100, steps: int = 40):
    """Best-of-*samples* microseconds per gate event, one figure per backlog.

    Each sample times *steps* steps of every backlog in turn, so a noisy
    spell on the host falls on all of them and leaves their ratio alone; a
    backlog is the same depth before and after every step, so the floor
    over samples is the event's cost with that noise removed.
    """
    best = [float("inf")] * len(backlogs)
    for _ in range(samples):
        for index, backlog in enumerate(backlogs):
            started = time.perf_counter()
            for _ in range(steps):
                backlog.step()
            best[index] = min(best[index], time.perf_counter() - started)
    return [seconds / (steps * SNAPSHOTS_PER_STEP) * 1e6 for seconds in best]


def test_bench_intake_event_vs_backlog_depth(benchmark):
    shallow = SteadyBacklog(256)
    deep = SteadyBacklog(4_096)
    state = benchmark.pedantic(deep.step, rounds=200, iterations=1)
    # Steady state: each step retired exactly the one admission it replaced.
    assert (state.queue_depth, state.pending_buckets) == (4_095, 3 * 4_095 + 1)
    assert shallow.step().queue_depth == 255
    us_at_256, us_at_4096 = event_us([shallow, deep])
    growth = us_at_4096 / us_at_256
    benchmark.extra_info["intake_us_per_event_at_256"] = round(us_at_256, 3)
    benchmark.extra_info["intake_us_per_event_at_4096"] = round(us_at_4096, 3)
    benchmark.extra_info["intake_growth_16x"] = round(growth, 3)
    assert growth <= MAX_GROWTH_16X, (
        f"a gate event costs {growth:.1f}x more at 16x the in-flight admissions "
        f"({us_at_256:.1f} -> {us_at_4096:.1f} us): it scales with the backlog again"
    )
