"""Fixtures shared by the process-backend tests."""

import pytest

from repro.reliability import runtime


@pytest.fixture
def handed_out(monkeypatch):
    """Every worker process the runs of one test were given."""
    processes = []
    real_acquire = runtime.acquire_worker

    def recording_acquire():
        acquired = real_acquire()
        processes.append(acquired[0])
        return acquired

    monkeypatch.setattr(runtime, "acquire_worker", recording_acquire)
    return processes
