"""Chrome-trace timeline assembly from run records.

Spans are derived after a run from records the engines already emit, so
these tests drive :func:`build_chrome_trace` with lightweight stand-ins
shaped like the real records (parallel ``BatchRecord``, serial
``BatchResult``, steal records, the reliability report) and check the
emitted events are well-formed per :func:`validate_chrome_trace`.
"""

import json
from types import SimpleNamespace

import pytest

from repro.telemetry.spans import (
    TRACE_PID,
    build_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from tests.telemetry.helpers import serial_batch


def parallel_record(worker_id=1, bucket_index=3, start=0.0, finish=2.5):
    return SimpleNamespace(
        worker_id=worker_id,
        bucket_index=bucket_index,
        started_at_ms=start,
        finished_at_ms=finish,
        queries_served=(11, 12),
        objects_served=(7,),
    )


def serial_record(bucket_index=5, start=1.0, finish=4.0):
    """The serial engine's BatchResult: it carries no worker id."""
    return serial_batch(bucket_index, start, finish, queries=(3,))


def steal_record(victim=0, thief=2, bucket=9, time_ms=5.0, entries=4):
    return SimpleNamespace(
        victim_id=victim,
        thief_id=thief,
        bucket_index=bucket,
        time_ms=time_ms,
        entry_count=entries,
    )


def events_by_phase(trace, phase):
    return [event for event in trace["traceEvents"] if event["ph"] == phase]


class TestServiceEvents:
    def test_parallel_record_becomes_complete_event(self):
        trace = build_chrome_trace([parallel_record()], label="demo", backend="virtual")
        validate_chrome_trace(trace)
        (event,) = events_by_phase(trace, "X")
        assert event["name"] == "bucket 3"
        assert event["tid"] == 1 and event["pid"] == TRACE_PID
        # Virtual milliseconds export as trace microseconds.
        assert event["ts"] == 0.0 and event["dur"] == 2500.0
        assert event["args"]["queries_served"] == [11, 12]
        assert event["args"]["objects_served"] == [7]

    def test_serial_record_normalises_via_work_item(self):
        trace = build_chrome_trace([serial_record()])
        validate_chrome_trace(trace)
        (event,) = events_by_phase(trace, "X")
        assert event["name"] == "bucket 5"
        assert event["tid"] == 0  # serial engine: single implicit shard
        assert event["ts"] == 1000.0 and event["dur"] == 3000.0

    def test_metadata_names_every_worker_track(self):
        trace = build_chrome_trace(
            [parallel_record(worker_id=0), parallel_record(worker_id=3)],
            steal_records=[steal_record(victim=1, thief=2)],
            label="p",
        )
        meta = events_by_phase(trace, "M")
        names = {event["args"]["name"] for event in meta}
        # Steal participants get tracks even if they serviced nothing.
        assert {"shard-0", "shard-1", "shard-2", "shard-3"} <= names
        assert any(name.startswith("liferaft run (p)") for name in names)

    def test_other_data_summarises_the_run(self):
        trace = build_chrome_trace(
            [parallel_record()],
            steal_records=[steal_record()],
            window_boundaries_ms=[10.0, 20.0],
            label="lbl",
            backend="process",
        )
        other = trace["otherData"]
        assert other["clock"] == "virtual"
        assert other["backend"] == "process"
        assert other["services"] == 1
        assert other["steals"] == 1
        assert other["windows"] == 2


class TestInstantEvents:
    def test_steals_and_windows(self):
        trace = build_chrome_trace(
            [parallel_record()],
            steal_records=[steal_record(thief=2, bucket=9, time_ms=5.0)],
            window_boundaries_ms=[10.0],
        )
        validate_chrome_trace(trace)
        instants = {event["name"]: event for event in events_by_phase(trace, "i")}
        steal = instants["steal bucket 9"]
        assert steal["tid"] == 2 and steal["ts"] == 5000.0
        assert steal["args"]["victim"] == 0 and steal["args"]["entries"] == 4
        window = instants["window 0"]
        assert window["s"] == "p"  # process-scoped barrier
        assert window["ts"] == 10000.0

    def test_reliability_marks(self):
        reliability = SimpleNamespace(
            checkpoint_marks=[
                SimpleNamespace(
                    worker_id=1, window_index=0, clock_ms=12.0, seq=3, byte_size=640
                )
            ],
            recoveries=[
                SimpleNamespace(
                    worker_id=1, window_index=1, checkpoint_window=0, services_replayed=2
                )
            ],
            scale_events=[
                SimpleNamespace(
                    worker_id=2,
                    window_index=1,
                    kind="up",
                    buckets_migrated=4,
                    entries_migrated=9,
                )
            ],
        )
        trace = build_chrome_trace(
            [parallel_record()],
            window_boundaries_ms=[10.0, 20.0],
            reliability=reliability,
        )
        validate_chrome_trace(trace)
        instants = {event["name"]: event for event in events_by_phase(trace, "i")}
        checkpoint = instants["checkpoint w0"]
        assert checkpoint["ts"] == 12000.0 and checkpoint["args"]["bytes"] == 640
        recover = instants["recover shard 1"]
        # Recovery lands on its window's barrier time.
        assert recover["ts"] == 20000.0
        assert recover["args"]["services_replayed"] == 2
        scale = instants["scale-up shard 2"]
        assert scale["args"]["buckets_migrated"] == 4

    def test_empty_run_is_still_valid(self):
        trace = build_chrome_trace([])
        validate_chrome_trace(trace)
        assert events_by_phase(trace, "X") == []


def admission_record(time_ms=0.5, query_id=11, outcome="admit", attempt=0):
    return SimpleNamespace(
        time_ms=time_ms, query_id=query_id, outcome=outcome, attempt=attempt
    )


class TestQueryFlows:
    def test_flows_off_by_default(self):
        trace = build_chrome_trace([parallel_record()])
        assert trace["otherData"]["query_flows"] is False
        for phase in ("s", "t", "f"):
            assert events_by_phase(trace, phase) == []

    def test_chunk_chain_stitches_start_step_finish(self):
        records = [
            parallel_record(worker_id=0, bucket_index=3, start=0.0, finish=2.0),
            parallel_record(worker_id=1, bucket_index=7, start=2.0, finish=5.0),
        ]
        trace = build_chrome_trace(records, include_query_flows=True)
        validate_chrome_trace(trace)
        starts = events_by_phase(trace, "s")
        steps = events_by_phase(trace, "t")
        finishes = events_by_phase(trace, "f")
        # Both records serve queries 11 and 12, so two flows emerge.
        assert {event["id"] for event in starts} == {11, 12}
        flow_11 = [e for e in starts + steps + finishes if e["id"] == 11]
        assert [e["ph"] for e in flow_11] == ["s", "t", "f"]
        # With no admission gate the chain starts at the first chunk.
        assert flow_11[0]["ts"] == 0.0 and flow_11[0]["tid"] == 0
        assert flow_11[1]["ts"] == 2000.0 and flow_11[1]["tid"] == 1
        assert flow_11[2]["ts"] == 5000.0 and flow_11[2]["bp"] == "e"

    def test_admitted_query_starts_on_the_frontend_track(self):
        trace = build_chrome_trace(
            [parallel_record(worker_id=2, start=1.0, finish=2.0)],
            admission_records=[admission_record(time_ms=0.25, query_id=11)],
            include_query_flows=True,
        )
        validate_chrome_trace(trace)
        (start,) = [e for e in events_by_phase(trace, "s") if e["id"] == 11]
        # The causal chain begins at the gate's admit instant, on the
        # dedicated frontend track above the worker lanes.
        assert start["ts"] == 250.0
        assert start["tid"] == 3  # max(worker_ids) + 1
        # The first chunk is then a step, not the start.
        steps = [e for e in events_by_phase(trace, "t") if e["id"] == 11]
        assert steps and steps[0]["ts"] == 1000.0 and steps[0]["tid"] == 2

    def test_admission_instants_and_frontend_metadata(self):
        trace = build_chrome_trace(
            [parallel_record(worker_id=0)],
            admission_records=[
                admission_record(time_ms=0.1, query_id=11, outcome="defer", attempt=0),
                admission_record(time_ms=0.4, query_id=11, outcome="admit", attempt=1),
                admission_record(time_ms=0.2, query_id=99, outcome="reject"),
            ],
        )
        validate_chrome_trace(trace)
        assert trace["otherData"]["admissions"] == 3
        instants = {
            event["name"]: event
            for event in events_by_phase(trace, "i")
            if event.get("cat") == "admission"
        }
        assert set(instants) == {"defer q11", "admit q11", "reject q99"}
        assert instants["admit q11"]["args"]["attempt"] == 1
        meta_names = {event["args"]["name"] for event in events_by_phase(trace, "M")}
        assert "frontend" in meta_names

    def test_defer_chain_stitches_every_backpressure_round(self):
        trace = build_chrome_trace(
            [parallel_record(worker_id=0, start=2.0, finish=3.0)],
            admission_records=[
                admission_record(time_ms=0.1, query_id=11, outcome="defer", attempt=0),
                admission_record(time_ms=0.6, query_id=11, outcome="defer", attempt=1),
                admission_record(time_ms=1.1, query_id=11, outcome="admit", attempt=2),
            ],
            include_query_flows=True,
        )
        validate_chrome_trace(trace)
        (start,) = [e for e in events_by_phase(trace, "s") if e["id"] == 11]
        # The flow starts at the FIRST gate decision (the first defer),
        # on the frontend track (max worker id + 1).
        assert start["ts"] == 100.0 and start["tid"] == 1
        steps = [e for e in events_by_phase(trace, "t") if e["id"] == 11]
        # Every later backpressure round — the second defer AND the final
        # admit — is a step on the frontend track before the chunk leg.
        assert [(e["ts"], e["tid"]) for e in steps[:2]] == [(600.0, 1), (1100.0, 1)]
        assert (steps[2]["ts"], steps[2]["tid"]) == (2000.0, 0)

    def test_flow_events_validate(self):
        base = {"name": "query 1", "ph": "s", "pid": 1, "tid": 0, "cat": "query"}
        with pytest.raises(ValueError, match="flow events need ts and id"):
            validate_chrome_trace({"traceEvents": [dict(base, ts=1.0)]})
        with pytest.raises(ValueError, match="flow events need ts and id"):
            validate_chrome_trace({"traceEvents": [dict(base, id=1)]})
        validate_chrome_trace({"traceEvents": [dict(base, ts=1.0, id=1)]})


class TestValidation:
    def test_rejects_non_trace_objects(self):
        with pytest.raises(ValueError, match="missing 'traceEvents'"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="must be a list"):
            validate_chrome_trace({"traceEvents": {}})
        with pytest.raises(ValueError, match="is not an object"):
            validate_chrome_trace({"traceEvents": ["nope"]})

    def test_rejects_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required key 'tid'"):
            validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "i", "pid": 1}]})

    def test_rejects_malformed_complete_events(self):
        base = {"name": "x", "ph": "X", "pid": 1, "tid": 0}
        with pytest.raises(ValueError, match="need ts and dur"):
            validate_chrome_trace({"traceEvents": [dict(base, ts=1.0)]})
        with pytest.raises(ValueError, match="negative duration"):
            validate_chrome_trace({"traceEvents": [dict(base, ts=1.0, dur=-2.0)]})

    def test_rejects_unknown_phase(self):
        event = {"name": "x", "ph": "B", "pid": 1, "tid": 0, "ts": 0.0}
        with pytest.raises(ValueError, match="unexpected phase"):
            validate_chrome_trace({"traceEvents": [event]})


class TestWriter:
    def test_writes_loadable_json_atomically(self, tmp_path):
        path = tmp_path / "trace.json"
        trace = build_chrome_trace([parallel_record()], label="written")
        write_chrome_trace(str(path), trace)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        validate_chrome_trace(loaded)
        assert loaded == json.loads(json.dumps(trace))
        assert [entry.name for entry in tmp_path.iterdir()] == ["trace.json"]
