"""``liferaft replay``: a bad input is a one-line exit, a failing run is not.

Reading the trace and building the simulator and spec is input handling:
a ``ValueError`` there (a footprint outside the store's layout, a bad
override) ends the command with one line.  ``Simulator.execute`` runs
outside that step, so an error raised inside the run keeps its traceback.
"""

import pytest

from repro.cli import main
from repro.sim.simulator import SimulationConfig, Simulator
from repro.storage.ingest import materialize_layout
from repro.workload.scenarios import record_scenario
from repro.workload.trace_io import read_trace


@pytest.fixture(scope="module")
def trace_128(tmp_path_factory):
    """A short scenario recorded against a 128-bucket site."""
    path = str(tmp_path_factory.mktemp("replay") / "hotspot.lrtr")
    record_scenario("hotspot_zone_skew", path, query_count=20, bucket_count=128, seed=4)
    return path


def test_an_error_inside_the_run_keeps_its_traceback(trace_128, monkeypatch):
    def broken_execute(self, queries, spec=None):
        raise ValueError("broken inside the run")

    monkeypatch.setattr(Simulator, "execute", broken_execute)
    with pytest.raises(ValueError, match="broken inside the run"):
        main(["replay", trace_128])


def test_a_trace_larger_than_the_store_is_a_one_line_exit(trace_128, tmp_path, capsys):
    store = str(tmp_path / "site64.lrbs")
    materialize_layout(store, Simulator(SimulationConfig(bucket_count=64)).layout, 4)
    outside = sorted(
        bucket
        for query in read_trace(trace_128).queries
        for bucket in query.bucket_footprint
        if bucket >= 64
    )
    assert outside, "the trace must reach past the small store"
    with pytest.raises(SystemExit) as exited:
        main(["replay", trace_128, "--store-path", store])
    message = str(exited.value.code)
    assert "outside the layout" in message
    assert any(str(bucket) in message for bucket in outside)
    assert "Traceback" not in capsys.readouterr().err
