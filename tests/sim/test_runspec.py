"""Tests for the RunSpec API: dispatch, defaults, and validation."""

import pytest

from repro.sim.runspec import DEFAULT_STORE, RunSpec
from repro.sim.simulator import (
    VIRTUAL_CLOCK_PARITY_FIELDS,
    SimulationConfig,
    Simulator,
)
from repro.workload.generator import TraceConfig, TraceGenerator


@pytest.fixture(scope="module")
def small_trace():
    return TraceGenerator(TraceConfig(query_count=60, bucket_count=128, seed=17)).generate()


@pytest.fixture(scope="module")
def simulator():
    return Simulator(SimulationConfig(bucket_count=128))


class TestRunSpec:
    def test_defaults_describe_a_serial_run(self):
        spec = RunSpec()
        assert spec.policy == "liferaft"
        assert spec.workers == 1
        assert not spec.is_parallel
        assert spec.store_path is DEFAULT_STORE

    def test_workers_imply_parallel_execution(self):
        assert RunSpec(workers=2).is_parallel
        assert RunSpec(workers=2).effective_backend == "virtual"
        assert RunSpec(backend="process").is_parallel
        assert RunSpec(backend="process").effective_backend == "process"

    def test_non_positive_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            RunSpec(workers=0)

    def test_non_positive_series_window_rejected(self):
        with pytest.raises(ValueError, match="series_window_ms must be positive"):
            RunSpec(series_window_ms=0.0)
        with pytest.raises(ValueError, match="series_window_ms must be positive"):
            RunSpec(series_window_ms=-10.0)

    def test_bad_policy_name_or_alpha_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown policy"):
            RunSpec(policy="fifo")
        with pytest.raises(ValueError, match="alpha must be within"):
            RunSpec(alpha=1.5)
        # Baselines ignore alpha, exactly as they do when the run builds them.
        assert RunSpec(policy="noshare", alpha=7.0).alpha == 7.0

    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(
            ValueError, match=r"unknown execution backend 'bogus'.*\('virtual', 'process'\)"
        ):
            RunSpec(backend="bogus")

    def test_with_store_replaces_only_the_store(self):
        spec = RunSpec(alpha=0.5, workers=2)
        in_memory = spec.with_store(None)
        assert in_memory.store_path is None
        assert in_memory.alpha == 0.5
        assert in_memory.workers == 2
        assert spec.store_path is DEFAULT_STORE  # the original is untouched

    def test_specs_are_immutable(self):
        with pytest.raises(AttributeError):
            RunSpec().alpha = 0.9


class TestExecute:
    def test_execute_is_deterministic(self, small_trace, simulator):
        queries = small_trace.with_saturation(0.5).queries
        first = simulator.execute(queries, RunSpec(alpha=0.25))
        second = simulator.execute(queries, RunSpec(alpha=0.25))
        for field in VIRTUAL_CLOCK_PARITY_FIELDS:
            assert getattr(first, field) == getattr(second, field), field

    def test_execute_without_spec_uses_defaults(self, small_trace, simulator):
        result = simulator.execute(small_trace.with_saturation(0.5).queries)
        assert result.completed_queries == len(small_trace)
        assert result.policy_name.startswith("liferaft")

    def test_execute_dispatches_workers_to_parallel_engine(self, small_trace, simulator):
        queries = small_trace.with_saturation(0.5).queries
        serial = simulator.execute(queries, RunSpec(alpha=0.0))
        parallel = simulator.execute(queries, RunSpec(alpha=0.0, workers=2))
        assert parallel.workers == 2
        # The virtual-clock totals are backend-invariant by construction.
        assert parallel.completed_queries == serial.completed_queries

    def test_serial_and_single_worker_virtual_agree(self, small_trace, simulator):
        queries = small_trace.with_saturation(0.5).queries
        serial = simulator.execute(queries, RunSpec(alpha=0.0))
        virtual = simulator.execute(queries, RunSpec(alpha=0.0, backend="virtual"))
        assert serial.result_digest == virtual.result_digest


class TestShimsRemoved:
    """`execute` is the single entry point; the PR-5-era shims are gone."""

    def test_run_shims_are_gone(self, simulator):
        assert not hasattr(simulator, "run")
        assert not hasattr(simulator, "run_parallel")

    def test_replay_shim_is_gone(self):
        import repro.workload.replay as replay

        assert not hasattr(replay, "replay_into_engine")

    def test_disk_import_shim_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.storage.disk  # noqa: F401
