"""Discrete-event simulation used to drive the evaluation.

The paper measures wall-clock throughput and response time on a real
SQL Server installation.  The reproduction replaces wall-clock time with a
virtual clock advanced by the cost model (``Tb``, ``Tm``, index probe
costs), which makes every experiment deterministic and fast while
preserving the *relative* behaviour of the scheduling policies — the thing
the figures actually compare.

``events``     a tiny priority event queue (arrivals, service completions)
``stats``      response-time / throughput statistics helpers
``simulator``  the open-system simulator replaying a trace against an engine
"""

from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.runspec import DEFAULT_STORE, RunSpec
from repro.sim.stats import ResponseTimeStats, summarize_response_times
from repro.sim.simulator import SimulationConfig, SimulationResult, Simulator

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "ResponseTimeStats",
    "summarize_response_times",
    "DEFAULT_STORE",
    "RunSpec",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
]
