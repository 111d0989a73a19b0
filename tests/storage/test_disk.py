"""Tests for the analytical disk model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.disk_model import (
    DiskModel,
    DiskParameters,
    IOKind,
    IORecord,
    IOTrace,
    calibrated_disk_for_bucket_read,
)


def cost_ms(trace, kind=None):
    """Charged I/O time the trace's ``io.cost_ms`` counters hold, for one kind or all."""
    kinds = [kind] if kind is not None else list(IOKind)
    return sum(
        trace.telemetry.counter("io.cost_ms", labels={"kind": k.value}).value for k in kinds
    )


class TestDiskParameters:
    def test_defaults_are_physical(self):
        params = DiskParameters()
        assert params.positioning_ms > 0
        assert params.transfer_ms(1.0) > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DiskParameters(sequential_bandwidth_mb_per_s=0)
        with pytest.raises(ValueError):
            DiskParameters(average_seek_ms=-1)
        with pytest.raises(ValueError):
            DiskParameters(page_size_kb=0)

    @given(st.floats(min_value=0.0, max_value=1000.0))
    def test_transfer_time_scales_linearly(self, megabytes):
        params = DiskParameters()
        assert params.transfer_ms(megabytes) == pytest.approx(
            megabytes * params.transfer_ms(1.0), rel=1e-9, abs=1e-9
        )

    def test_negative_transfer_rejected(self):
        with pytest.raises(ValueError):
            DiskParameters().transfer_ms(-1.0)


class TestDiskModel:
    def test_bucket_read_includes_positioning_and_transfer(self):
        disk = DiskModel(DiskParameters(sequential_bandwidth_mb_per_s=40.0))
        cost = disk.bucket_read_ms(40.0)
        assert cost == pytest.approx(disk.parameters.positioning_ms + 1000.0)

    def test_sequential_read_beats_random_pages_for_large_transfers(self):
        disk = DiskModel()
        sequential = disk.bucket_read_ms(40.0)
        pages = int(40.0 * 1024 / disk.parameters.page_size_kb)
        random_cost = disk.index_probe_ms(pages)
        assert sequential < random_cost

    def test_probe_requires_positive_pages(self):
        disk = DiskModel()
        with pytest.raises(ValueError):
            disk.index_probe_ms(0)

    def test_trace_records_when_enabled(self):
        trace = IOTrace(enabled=True)
        disk = DiskModel(trace=trace)
        disk.bucket_read_ms(40.0, label="bucket:1")
        disk.index_probe_ms(3, label="probe")
        assert trace.count(IOKind.SEQUENTIAL_BUCKET_READ) == 1
        assert trace.count(IOKind.RANDOM_INDEX_PROBE) == 1
        assert cost_ms(trace) > 0
        assert trace.total_megabytes(IOKind.SEQUENTIAL_BUCKET_READ) == pytest.approx(40.0)

    def test_trace_disabled_by_default(self):
        disk = DiskModel()
        disk.bucket_read_ms(40.0)
        assert disk.trace.records == []

    def test_trace_cap_and_clear(self):
        trace = IOTrace(enabled=True, max_records=2)
        for _ in range(5):
            trace.record(IORecord(IOKind.RANDOM_PAGE_READ, 0.01, 1.0))
        assert len(trace.records) == 2
        trace.clear()
        assert trace.records == []


class TestTraceRingBuffer:
    """The trace is a ring buffer: detail is bounded, aggregates are exact."""

    def test_ring_keeps_newest_records(self):
        trace = IOTrace(enabled=True, max_records=3)
        for i in range(10):
            trace.record(IORecord(IOKind.RANDOM_PAGE_READ, 0.01, 1.0, label=f"r{i}"))
        assert [r.label for r in trace.records] == ["r7", "r8", "r9"]
        assert trace.dropped == 7

    def test_aggregates_survive_ring_eviction(self):
        trace = IOTrace(enabled=True, max_records=2)
        for _ in range(100):
            trace.record(IORecord(IOKind.SEQUENTIAL_BUCKET_READ, 40.0, 1200.0))
        for _ in range(50):
            trace.record(IORecord(IOKind.RANDOM_INDEX_PROBE, 0.008, 13.0))
        # Only 2 detailed records remain, but the counters are exact.
        assert len(trace.records) == 2
        assert trace.count(IOKind.SEQUENTIAL_BUCKET_READ) == 100
        assert trace.count(IOKind.RANDOM_INDEX_PROBE) == 50
        assert cost_ms(trace, IOKind.SEQUENTIAL_BUCKET_READ) == pytest.approx(120_000.0)
        assert trace.total_megabytes(IOKind.SEQUENTIAL_BUCKET_READ) == pytest.approx(4000.0)
        assert cost_ms(trace) == pytest.approx(120_000.0 + 650.0)

    def test_memory_stays_bounded_on_long_runs(self):
        trace = IOTrace(enabled=True, max_records=16)
        disk = DiskModel(trace=trace)
        for i in range(10_000):
            disk.bucket_read_ms(40.0, label=f"bucket:{i % 7}")
        assert len(trace.records) == 16
        assert trace.count(IOKind.SEQUENTIAL_BUCKET_READ) == 10_000

    def test_clear_resets_aggregates_and_drop_counter(self):
        trace = IOTrace(enabled=True, max_records=1)
        trace.record(IORecord(IOKind.RANDOM_PAGE_READ, 0.01, 1.0))
        trace.record(IORecord(IOKind.RANDOM_PAGE_READ, 0.01, 1.0))
        assert trace.dropped == 1
        trace.clear()
        assert trace.dropped == 0
        assert trace.count(IOKind.RANDOM_PAGE_READ) == 0
        assert cost_ms(trace) == 0.0

    def test_disabled_trace_records_nothing(self):
        trace = IOTrace(enabled=False)
        trace.record(IORecord(IOKind.RANDOM_PAGE_READ, 0.01, 1.0))
        assert trace.records == []
        assert trace.count(IOKind.RANDOM_PAGE_READ) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            IOTrace(max_records=0)


class TestCalibration:
    def test_calibrated_disk_reproduces_paper_tb(self):
        disk = calibrated_disk_for_bucket_read(40.0, 1.2)
        assert disk.bucket_read_ms(40.0) == pytest.approx(1200.0, rel=1e-9)

    def test_calibration_rejects_impossible_targets(self):
        with pytest.raises(ValueError):
            calibrated_disk_for_bucket_read(40.0, 0.0)
        with pytest.raises(ValueError):
            calibrated_disk_for_bucket_read(40.0, 0.001)
