"""Tests for the .lrtr trace codec (record/replay's on-disk format)."""

import pytest

from repro.fileio import FormatError
from repro.htm.curve import HTMRange
from repro.workload.query import CrossMatchObject, CrossMatchQuery
from repro.workload.trace_io import (
    TRACE_SUFFIX,
    read_trace,
    run_digest,
    write_trace,
)


def abstract(query_id, footprint, arrival=0.0, **kwargs):
    return CrossMatchQuery(
        query_id=query_id,
        bucket_footprint=footprint,
        arrival_time_s=arrival,
        **kwargs,
    )


@pytest.fixture()
def queries():
    return [
        abstract(0, {0: 10, 5: 3}, arrival=0.5),
        abstract(1, {2: 7}, arrival=1.25, client_id=3, deadline_class="interactive"),
        abstract(2, {0: 1, 1: 1, 2: 1}, arrival=2.0, archives=("sdss",)),
        CrossMatchQuery(
            query_id=3,
            objects=(
                CrossMatchObject(
                    object_id=77,
                    htm_range=HTMRange(8 << 28, (8 << 28) + 10),
                    ra=12.5,
                    dec=-3.25,
                    match_radius_arcsec=2.0,
                    magnitude=17.5,
                ),
            ),
            arrival_time_s=3.0,
        ),
    ]


class TestRoundTrip:
    def test_everything_survives(self, tmp_path, queries):
        path = str(tmp_path / f"trace{TRACE_SUFFIX}")
        info = write_trace(path, queries, meta={"label": "t"}, expected_digest="abc")
        assert info.query_count == 4
        assert info.byte_size > 0
        trace = read_trace(path)
        assert len(trace) == 4
        assert trace.expected_digest == "abc"
        assert trace.meta["label"] == "t"
        for original, decoded in zip(queries, trace.queries):
            assert decoded.query_id == original.query_id
            assert decoded.arrival_time_s == original.arrival_time_s
            assert decoded.bucket_footprint == original.bucket_footprint
            assert decoded.client_id == original.client_id
            assert decoded.deadline_class == original.deadline_class
            assert decoded.archives == original.archives

    def test_explicit_objects_survive_bit_exactly(self, tmp_path, queries):
        path = str(tmp_path / f"trace{TRACE_SUFFIX}")
        write_trace(path, queries)
        decoded = read_trace(path).queries[3]
        (obj,) = decoded.objects
        assert obj.object_id == 77
        assert obj.htm_range == HTMRange(8 << 28, (8 << 28) + 10)
        assert obj.ra == 12.5 and obj.dec == -3.25
        assert obj.match_radius_arcsec == 2.0 and obj.magnitude == 17.5

    def test_none_optionals_round_trip_as_none(self, tmp_path):
        path = str(tmp_path / f"trace{TRACE_SUFFIX}")
        write_trace(path, [abstract(0, {1: 1})])
        decoded = read_trace(path).queries[0]
        assert decoded.client_id is None
        assert decoded.deadline_class is None

    def test_empty_trace_round_trips(self, tmp_path):
        path = str(tmp_path / f"empty{TRACE_SUFFIX}")
        write_trace(path, [])
        trace = read_trace(path)
        assert len(trace) == 0
        assert trace.expected_digest == ""


class TestValidation:
    def test_predicate_queries_not_encodable(self, tmp_path):
        query = abstract(0, {0: 1}, predicate=lambda row: True)
        with pytest.raises(FormatError, match="predicate"):
            write_trace(str(tmp_path / f"x{TRACE_SUFFIX}"), [query])

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / f"x{TRACE_SUFFIX}"
        bad = abstract(1, {0: 1}, predicate=lambda row: True)
        with pytest.raises(FormatError):
            write_trace(str(path), [abstract(0, {0: 1}), bad])
        assert not path.exists()


class TestRunDigest:
    def test_insensitive_to_dict_order(self):
        a = run_digest({1: 10.0, 2: 20.0}, [1.0])
        b = run_digest({2: 20.0, 1: 10.0}, [1.0])
        assert a == b

    def test_sensitive_to_times_and_parity_values(self):
        base = run_digest({1: 10.0}, [1.0, 2.0])
        assert run_digest({1: 10.5}, [1.0, 2.0]) != base
        assert run_digest({1: 10.0}, [1.0, 2.5]) != base
        assert run_digest({1: 10.0, 2: 0.0}, [1.0, 2.0]) != base

    def test_empty_run_has_a_digest(self):
        assert len(run_digest({}, [])) == 64
