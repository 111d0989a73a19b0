"""Cross-backend serving parity: identical chunk streams everywhere.

The serving layer promises that *where* a query executes changes nothing
a client observes.  This harness replays one seeded open-system trace
through the serving front-end on the serial engine, the virtual backend
and the process backend and asserts:

* with stealing disabled, the virtual and process backends produce
  **identical per-query chunk sequences** — bucket ids, progress
  fractions and virtual timestamps — for workers in {1, 2, 4}, and at
  one worker both match the serial engine exactly;
* with stealing enabled (at a steal window tight enough that both
  backends really steal), the virtual and process backends still produce
  identical per-query chunk sequences — one loop drives both — and
  complete the **same final set** of queries as the serial engine;
* chunks of one query arrive in **non-decreasing virtual time** on every
  backend, stealing on or off (the stream-ordering satellite).
"""

import pytest

from repro.experiments.common import build_simulator, build_trace
from repro.service.frontend import ServiceConfig
from repro.sim.runspec import RunSpec

BUCKETS = 64
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def queries():
    trace = build_trace("small", query_count=50, bucket_count=BUCKETS, seed=21)
    return tuple(trace.with_saturation(3.0).queries)


@pytest.fixture(scope="module")
def simulator():
    return build_simulator("small", bucket_count=BUCKETS)


def serve_serial(simulator, queries, **config_kwargs):
    return simulator.execute(
        queries, RunSpec(alpha=0.25, service=ServiceConfig(**config_kwargs))
    )


def serve_parallel(
    simulator, queries, backend, workers, stealing, steal_quantum_ms=None, **config_kwargs
):
    return simulator.execute(
        queries,
        RunSpec(
            alpha=0.25,
            workers=workers,
            backend=backend,
            enable_stealing=stealing,
            steal_quantum_ms=steal_quantum_ms,
            service=ServiceConfig(**config_kwargs),
        ),
    )


def signature(chunks_by_query):
    """Round timestamps so float noise cannot fail an exact comparison."""
    return {
        query_id: tuple(
            (c.bucket_index, round(c.progress, 9), round(c.time_ms, 6)) for c in chunks
        )
        for query_id, chunks in chunks_by_query.items()
    }


@pytest.fixture(scope="module")
def streamed_runs(simulator, queries):
    """Every (backend, workers) cell, stealing disabled, with chunk capture."""
    runs = {}

    def capture():
        chunks = {}

        def on_chunk(chunk):
            chunks.setdefault(chunk.query_id, []).append(chunk)

        return chunks, on_chunk

    chunks, on_chunk = capture()
    runs[("serial", 1)] = (
        serve_serial(simulator, queries, on_chunk=on_chunk),
        chunks,
    )
    for backend in ("virtual", "process"):
        for workers in WORKER_COUNTS:
            chunks, on_chunk = capture()
            runs[(backend, workers)] = (
                serve_parallel(
                    simulator, queries, backend, workers, stealing=False, on_chunk=on_chunk
                ),
                chunks,
            )
    return runs


class TestChunkSequenceParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_virtual_and_process_streams_are_identical(self, streamed_runs, workers):
        _virtual_result, virtual_chunks = streamed_runs[("virtual", workers)]
        _process_result, process_chunks = streamed_runs[("process", workers)]
        assert signature(virtual_chunks) == signature(process_chunks)

    @pytest.mark.parametrize("backend", ("virtual", "process"))
    def test_single_worker_matches_the_serial_engine(self, streamed_runs, backend):
        _serial_result, serial_chunks = streamed_runs[("serial", 1)]
        _backend_result, backend_chunks = streamed_runs[(backend, 1)]
        assert signature(backend_chunks) == signature(serial_chunks)

    def test_serving_reports_agree_across_backends(self, streamed_runs):
        for workers in WORKER_COUNTS:
            virtual = streamed_runs[("virtual", workers)][0].serving
            process = streamed_runs[("process", workers)][0].serving
            assert virtual.completed == process.completed
            assert virtual.chunks == process.chunks
            assert virtual.avg_time_to_first_result_s == pytest.approx(
                process.avg_time_to_first_result_s, rel=1e-9
            )
            assert virtual.avg_time_to_completion_s == pytest.approx(
                process.avg_time_to_completion_s, rel=1e-9
            )

    @pytest.mark.parametrize("cell", [("serial", 1), ("virtual", 2), ("process", 4)])
    def test_progress_fractions_are_well_formed(self, streamed_runs, cell):
        _result, chunks_by_query = streamed_runs[cell]
        assert chunks_by_query, "the run must stream at least one chunk"
        for chunks in chunks_by_query.values():
            fractions = [chunk.progress for chunk in chunks]
            assert fractions == sorted(fractions)
            assert fractions[-1] == pytest.approx(1.0)
            assert chunks[-1].final
            assert all(not chunk.final for chunk in chunks[:-1])
            seqs = [chunk.seq for chunk in chunks]
            assert seqs == list(range(len(chunks)))


class TestChunkOrderUnderStealing:
    """With stealing enabled both backends run the same steal schedule:
    each completes the serial query set, streams every query's chunks in
    non-decreasing virtual time, and the chunk sequences are equal."""

    @pytest.fixture(scope="class")
    def stolen_runs(self, simulator, queries):
        runs = {}
        for backend in ("virtual", "process"):
            chunks = {}

            def on_chunk(chunk, chunks=chunks):
                chunks.setdefault(chunk.query_id, []).append(chunk)

            # Two bucket reads per window: the default 64 drains this small
            # trace in a handful of barriers and nothing gets stolen.
            result = serve_parallel(
                simulator,
                queries,
                backend,
                workers=4,
                stealing=True,
                steal_quantum_ms=simulator.config.cost.tb_ms * 2,
                on_chunk=on_chunk,
            )
            runs[backend] = (result, chunks)
        return runs

    def test_completion_sets_are_identical(self, stolen_runs, simulator, queries):
        serial = serve_serial(simulator, queries)
        expected = serial.serving.completed
        for backend in ("virtual", "process"):
            result, chunks = stolen_runs[backend]
            assert result.serving.completed == expected
            finished = {qid for qid, seq in chunks.items() if seq and seq[-1].final}
            assert len(finished) == expected

    @pytest.mark.parametrize("backend", ("virtual", "process"))
    def test_chunks_arrive_in_non_decreasing_virtual_time(self, stolen_runs, backend):
        result, chunks_by_query = stolen_runs[backend]
        assert result.steals > 0, "the skewed saturated trace should trigger stealing"
        for query_id, chunks in chunks_by_query.items():
            times = [chunk.time_ms for chunk in chunks]
            assert times == sorted(times), f"query {query_id} streamed out of order"
            fractions = [chunk.progress for chunk in chunks]
            assert fractions == sorted(fractions)

    def test_chunk_sequences_are_identical_across_backends(self, stolen_runs):
        virtual, virtual_chunks = stolen_runs["virtual"]
        process, process_chunks = stolen_runs["process"]
        assert virtual.steals == process.steals
        assert signature(virtual_chunks) == signature(process_chunks)
