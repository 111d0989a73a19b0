"""The cost model, and Equations (1)–(2) as the scheduler oracle writes them."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.metrics import PAPER_TB_MS, PAPER_TM_MS, CostModel
from tests.core.scheduler_oracle import (
    aged_workload_throughput,
    max_workload_throughput,
    workload_throughput,
)


class TestCostModel:
    def test_paper_defaults(self):
        cost = CostModel.paper_defaults()
        assert cost.tb_ms == PAPER_TB_MS
        assert cost.tm_ms == PAPER_TM_MS

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(tb_ms=0)
        with pytest.raises(ValueError):
            CostModel(tm_ms=-1)
        with pytest.raises(ValueError):
            CostModel(index_probe_ms=0)
        with pytest.raises(ValueError):
            CostModel(bucket_objects=0)

    def test_breakeven_is_about_three_percent(self):
        cost = CostModel.paper_defaults()
        # The paper reports the scan/index break-even near 3% of the bucket.
        assert 0.02 <= cost.breakeven_fraction() <= 0.04

    def test_breakeven_infinite_when_index_cheaper_than_memory(self):
        cost = CostModel(index_probe_ms=PAPER_TM_MS / 2)
        assert cost.breakeven_queue_objects() == float("inf")

    def test_scan_and_index_costs(self):
        cost = CostModel.paper_defaults()
        assert cost.scan_cost_ms(0, in_memory=True) == 0.0
        assert cost.scan_cost_ms(100, in_memory=True) == pytest.approx(13.0)
        assert cost.scan_cost_ms(100, in_memory=False) == pytest.approx(1213.0)
        assert cost.index_cost_ms(100) == pytest.approx(420.0)
        with pytest.raises(ValueError):
            cost.scan_cost_ms(-1, in_memory=True)
        with pytest.raises(ValueError):
            cost.index_cost_ms(-1)


class TestWorkloadThroughput:
    def test_equation_one_values(self):
        cost = CostModel.paper_defaults()
        # Ut = W / (Tb*phi + Tm*W)
        assert workload_throughput(1000, False, cost) == pytest.approx(1000 / (1200 + 130))
        assert workload_throughput(1000, True, cost) == pytest.approx(1000 / 130)

    def test_empty_queue_has_zero_throughput(self):
        assert workload_throughput(0, True, CostModel.paper_defaults()) == 0.0

    def test_negative_queue_rejected(self):
        with pytest.raises(ValueError):
            workload_throughput(-1, True, CostModel.paper_defaults())

    @given(st.integers(min_value=1, max_value=10_000_000))
    def test_in_memory_always_at_least_as_good(self, queue):
        cost = CostModel.paper_defaults()
        assert workload_throughput(queue, True, cost) >= workload_throughput(queue, False, cost)

    @given(
        st.integers(min_value=1, max_value=1_000_000),
        st.integers(min_value=1, max_value=1_000_000),
    )
    def test_monotone_in_queue_size_when_on_disk(self, smaller, larger):
        cost = CostModel.paper_defaults()
        low, high = sorted((smaller, larger))
        assert workload_throughput(high, False, cost) >= workload_throughput(low, False, cost)

    @given(st.integers(min_value=1, max_value=10_000_000))
    def test_bounded_by_memory_matching_rate(self, queue):
        cost = CostModel.paper_defaults()
        assert workload_throughput(queue, False, cost) <= max_workload_throughput(cost) + 1e-12
        assert workload_throughput(queue, True, cost) <= max_workload_throughput(cost) + 1e-12


class TestAgedWorkloadThroughput:
    def test_alpha_zero_is_pure_contention(self):
        cost = CostModel.paper_defaults()
        ut = workload_throughput(500, False, cost)
        value = aged_workload_throughput(ut, 10_000.0, 0.0, cost=cost, max_age_ms=20_000.0)
        assert value == pytest.approx(ut / max_workload_throughput(cost))

    def test_alpha_one_is_pure_age(self):
        cost = CostModel.paper_defaults()
        ut = workload_throughput(500, False, cost)
        value = aged_workload_throughput(ut, 10_000.0, 1.0, cost=cost, max_age_ms=20_000.0)
        assert value == pytest.approx(0.5)

    def test_raw_combination_matches_equation_two(self):
        value = aged_workload_throughput(2.0, 100.0, 0.25, normalize=False)
        assert value == pytest.approx(2.0 * 0.75 + 100.0 * 0.25)

    def test_validation(self):
        cost = CostModel.paper_defaults()
        with pytest.raises(ValueError):
            aged_workload_throughput(1.0, 0.0, 1.5, cost=cost, max_age_ms=1.0)
        with pytest.raises(ValueError):
            aged_workload_throughput(1.0, -5.0, 0.5, cost=cost, max_age_ms=1.0)
        with pytest.raises(ValueError):
            aged_workload_throughput(1.0, 5.0, 0.5, cost=None, normalize=True)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=100_000.0),
        st.integers(min_value=0, max_value=100_000),
    )
    def test_normalised_value_is_bounded(self, alpha, age, queue):
        cost = CostModel.paper_defaults()
        ut = workload_throughput(queue, False, cost)
        value = aged_workload_throughput(ut, age, alpha, cost=cost, max_age_ms=100_000.0)
        assert -1e-9 <= value <= 1.0 + 1e-9

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_older_requests_never_lower_the_score(self, alpha):
        cost = CostModel.paper_defaults()
        ut = workload_throughput(200, False, cost)
        younger = aged_workload_throughput(ut, 1_000.0, alpha, cost=cost, max_age_ms=50_000.0)
        older = aged_workload_throughput(ut, 30_000.0, alpha, cost=cost, max_age_ms=50_000.0)
        assert older >= younger - 1e-12
