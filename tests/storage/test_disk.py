"""Tests for the analytical disk model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.disk_model import DiskModel, DiskParameters, calibrated_disk_for_bucket_read


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

    def test_negative_rotational_latency_rejected(self):
        with pytest.raises(ValueError, match="latencies"):
            DiskParameters(rotational_latency_ms=-0.5)

    def test_zero_latencies_are_allowed(self):
        params = DiskParameters(average_seek_ms=0.0, rotational_latency_ms=0.0)
        assert params.positioning_ms == 0.0

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

    def test_probe_rejects_negative_pages(self):
        with pytest.raises(ValueError, match="at least one page"):
            DiskModel().index_probe_ms(-3)

    def test_negative_bucket_size_rejected(self):
        with pytest.raises(ValueError, match="negative amount"):
            DiskModel().bucket_read_ms(-1.0)

    def test_default_parameters_when_none_given(self):
        assert DiskModel().parameters == DiskParameters()
        assert DiskModel(None).bucket_read_ms(40.0) == DiskModel(DiskParameters()).bucket_read_ms(
            40.0
        )

    @given(st.floats(min_value=0.0, max_value=1000.0))
    def test_bucket_read_is_positioning_plus_transfer_exactly(self, megabytes):
        """The same IEEE operations in the same order: equal, not approximately."""
        disk = DiskModel()
        parameters = disk.parameters
        expected = parameters.positioning_ms + parameters.transfer_ms(megabytes)
        assert disk.bucket_read_ms(megabytes) == expected

    @given(st.integers(min_value=1, max_value=10_000))
    def test_index_probe_is_pages_times_one_page_read_exactly(self, pages):
        disk = DiskModel()
        parameters = disk.parameters
        page_read = parameters.positioning_ms + parameters.transfer_ms(
            parameters.page_size_kb / 1024.0
        )
        assert disk.index_probe_ms(pages) == pages * page_read

    def test_costs_do_not_depend_on_call_history(self):
        """The model is stateless: a cost is the same on a fresh model and
        on one that has already charged many reads and probes."""
        fresh = DiskModel()
        used = DiskModel()
        for pages in range(1, 50):
            used.bucket_read_ms(float(pages))
            used.index_probe_ms(pages)
        assert used.bucket_read_ms(40.0) == fresh.bucket_read_ms(40.0)
        assert used.index_probe_ms(7) == fresh.index_probe_ms(7)
        assert vars(used) == vars(fresh)


class TestCalibration:
    def test_calibrated_disk_reproduces_paper_tb(self):
        disk = calibrated_disk_for_bucket_read(40.0, 1.2)
        assert disk.bucket_read_ms(40.0) == pytest.approx(1200.0, rel=1e-9)

    @pytest.mark.parametrize("megabytes, seconds", [(10.0, 0.5), (40.0, 1.2), (80.0, 3.0)])
    def test_calibration_hits_the_target_with_default_positioning(self, megabytes, seconds):
        disk = calibrated_disk_for_bucket_read(megabytes, seconds)
        assert disk.parameters.positioning_ms == DiskParameters().positioning_ms
        assert disk.bucket_read_ms(megabytes) == pytest.approx(1000.0 * seconds, rel=1e-12)

    def test_calibration_rejects_impossible_targets(self):
        with pytest.raises(ValueError):
            calibrated_disk_for_bucket_read(40.0, 0.0)
        with pytest.raises(ValueError):
            calibrated_disk_for_bucket_read(40.0, 0.001)
