"""Tests for the simulation kernel helpers: events and statistics."""

import pytest

from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.stats import summarize_response_times


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        queue.push(Event(30.0, EventKind.QUERY_ARRIVAL))
        queue.push(Event(10.0, EventKind.QUERY_ARRIVAL, payload="q1"))
        queue.push(Event(20.0, EventKind.CONTROL))
        assert queue.pop().payload == "q1"
        assert queue.pop().kind is EventKind.CONTROL
        assert len(queue) == 1

    def test_fifo_within_same_timestamp(self):
        queue = EventQueue()
        queue.push(Event(5.0, EventKind.CONTROL, payload="first"))
        queue.push(Event(5.0, EventKind.CONTROL, payload="second"))
        assert queue.pop().payload == "first"
        assert queue.pop().payload == "second"

    def test_length_and_truth_track_pushes_and_pops(self):
        queue = EventQueue()
        assert len(queue) == 0 and not queue
        queue.push(Event(42.0, EventKind.CONTROL))
        queue.push(Event(7.0, EventKind.CONTROL))
        assert len(queue) == 2 and queue
        queue.pop()
        queue.pop()
        assert len(queue) == 0 and not queue

    def test_pop_empty_raises_and_negative_time_rejected(self):
        with pytest.raises(IndexError):
            EventQueue().pop()
        with pytest.raises(ValueError):
            Event(-1.0, EventKind.CONTROL)

    def test_fifo_preserved_through_interleaved_pushes(self):
        """Ties stay FIFO even when pushed around other timestamps."""
        queue = EventQueue()
        queue.push(Event(5.0, EventKind.CONTROL, payload="a"))
        queue.push(Event(1.0, EventKind.CONTROL, payload="early"))
        queue.push(Event(5.0, EventKind.CONTROL, payload="b"))
        queue.push(Event(9.0, EventKind.CONTROL, payload="late"))
        queue.push(Event(5.0, EventKind.CONTROL, payload="c"))
        drained = [queue.pop().payload for _ in range(len(queue))]
        assert drained == ["early", "a", "b", "c", "late"]


class TestControlEventOrdering:
    """CONTROL events are the serving front-end's backpressure retries;
    their interleaving with fresh arrivals must be deterministic: strict
    time order first, push order (FIFO) within a timestamp, with the
    event kind playing no role in the ordering."""

    def test_control_retry_racing_a_fresh_arrival_is_fifo(self):
        queue = EventQueue()
        queue.push(Event(10.0, EventKind.QUERY_ARRIVAL, payload="fresh"))
        queue.push(Event(10.0, EventKind.CONTROL, payload="retry"))
        assert queue.pop().payload == "fresh"
        assert queue.pop().payload == "retry"

    def test_control_pushed_first_wins_the_tie(self):
        queue = EventQueue()
        queue.push(Event(10.0, EventKind.CONTROL, payload="retry"))
        queue.push(Event(10.0, EventKind.QUERY_ARRIVAL, payload="fresh"))
        assert queue.pop().payload == "retry"
        assert queue.pop().payload == "fresh"

    def test_kinds_do_not_reorder_within_a_timestamp(self):
        queue = EventQueue()
        kinds = (
            EventKind.QUERY_ARRIVAL,
            EventKind.CONTROL,
            EventKind.QUERY_ARRIVAL,
            EventKind.CONTROL,
            EventKind.CONTROL,
        )
        for position, kind in enumerate(kinds):
            queue.push(Event(7.0, kind, payload=position))
        assert [queue.pop().payload for _ in range(len(queue))] == [0, 1, 2, 3, 4]

    def test_defer_retry_cycle_is_deterministic(self):
        """The front-end's defer loop — pop an arrival, re-enqueue it as a
        CONTROL retry delta later — always drains in a reproducible global
        order, even when retries land between future arrivals."""
        queue = EventQueue()
        for arrival_ms, name in ((0.0, "a"), (4.0, "b"), (8.0, "c")):
            queue.push(Event(arrival_ms, EventKind.QUERY_ARRIVAL, payload=name))
        drained = []
        retried = set()
        while queue:
            event = queue.pop()
            if event.kind is EventKind.QUERY_ARRIVAL and event.payload not in retried:
                retried.add(event.payload)
                queue.push(Event(event.time_ms + 6.0, EventKind.CONTROL, payload=event.payload))
                continue
            drained.append((event.time_ms, event.payload))
        assert drained == [(6.0, "a"), (10.0, "b"), (14.0, "c")]


class TestResponseTimeStats:
    def test_summary_of_known_values(self):
        stats = summarize_response_times([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean_s == pytest.approx(2.5)
        assert stats.median_s == pytest.approx(2.5)
        assert stats.minimum_s == 1.0
        assert stats.maximum_s == 4.0
        assert stats.std_s == pytest.approx(1.118, rel=1e-3)
        assert stats.coefficient_of_variance == pytest.approx(1.118 / 2.5, rel=1e-3)
        assert stats.p95_s <= stats.maximum_s

    def test_empty_and_single_value(self):
        empty = summarize_response_times([])
        assert empty.count == 0 and empty.mean_s == 0.0
        assert empty.coefficient_of_variance == 0.0
        single = summarize_response_times([5.0])
        assert single.median_s == 5.0 and single.p95_s == 5.0 and single.std_s == 0.0
