"""Fixtures shared by the test packages."""

import pytest

from repro.reliability.runtime import ShardCoordinator


def record_outcomes(monkeypatch):
    """Wrap ``ShardCoordinator.execute`` so every outcome it returns is kept.

    Returns the list the outcomes are appended to, in run order: a test
    that runs through ``Simulator.execute`` reads the raw outcome (steal
    records, window boundaries, the reliability report) off its end.
    """
    outcomes = []
    real_execute = ShardCoordinator.execute

    def recording_execute(coordinator):
        outcome = real_execute(coordinator)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(ShardCoordinator, "execute", recording_execute)
    return outcomes


@pytest.fixture
def coordinator_outcomes(monkeypatch):
    """Every outcome the sharded runs of one test returned, in run order."""
    return record_outcomes(monkeypatch)
