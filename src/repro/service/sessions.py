"""Per-client sessions: identity and offered-rate measurement.

The serving front-end multiplexes many clients over one archive.  A
:class:`ClientSession` holds a sliding-window measurement of one
client's offered rate in virtual time — the quantity per-client
admission limits gate on.  What became of each offer is recorded once,
by the front-end (its intake outcome, ``admission.decisions`` counters
and admission instants), not here.  The :class:`SessionRegistry` owns the
sessions and the client-assignment rule: a query carrying a recorded
:attr:`~repro.workload.query.CrossMatchQuery.client_id` keeps it,
anything else hashes onto a fixed pool of synthetic clients.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

from repro.workload.query import CrossMatchQuery

__all__ = ["ClientSession", "SessionRegistry"]

#: Width of the sliding window used to measure a client's offered rate.
RATE_WINDOW_MS = 60_000.0


@dataclass
class ClientSession:
    """One client's view of the serving front-end."""

    client_id: int
    _offer_times: Deque[float] = field(default_factory=deque)

    def observe_offer(self, now_ms: float) -> None:
        """Record one query offered by this client at *now_ms*."""
        self._offer_times.append(now_ms)
        self._prune(now_ms)

    def offered_rate_qps(self, now_ms: float) -> float:
        """Offered queries per second over the trailing window."""
        self._prune(now_ms)
        if not self._offer_times:
            return 0.0
        return len(self._offer_times) / (RATE_WINDOW_MS / 1000.0)

    def _prune(self, now_ms: float) -> None:
        horizon = now_ms - RATE_WINDOW_MS
        while self._offer_times and self._offer_times[0] <= horizon:
            self._offer_times.popleft()


class SessionRegistry:
    """Owns the client sessions and the query-to-client assignment."""

    def __init__(self, clients: int = 4) -> None:
        if clients <= 0:
            raise ValueError("clients must be positive")
        self.clients = clients
        self._sessions: Dict[int, ClientSession] = {}

    def client_of(self, query: CrossMatchQuery) -> int:
        """The client a query belongs to: its recorded id, else a hash."""
        if query.client_id is not None:
            return query.client_id
        return query.query_id % self.clients

    def session(self, client_id: int) -> ClientSession:
        """The session of *client_id* (created on first use)."""
        session = self._sessions.get(client_id)
        if session is None:
            session = ClientSession(client_id)
            self._sessions[client_id] = session
        return session

    def session_for(self, query: CrossMatchQuery) -> ClientSession:
        """The session owning *query*."""
        return self.session(self.client_of(query))
