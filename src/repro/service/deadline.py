"""Deadline classes and SLA tracking for served queries.

Exploration workloads are not uniform: an interactive session wants its
first rows in seconds, a batch cross-match can wait an hour.  The serving
layer assigns every admitted query a :class:`DeadlineClass` — a named
latency target — and the :class:`DeadlineTracker` scores each class after
the run: completions that met the deadline, completions that missed it,
and queries the admission gate rejected outright.  Two SLA notions are
scored per class, matching the streaming model: the *first-result*
deadline (a partial answer arrived in time) and the *completion* deadline
(the full answer did).

Class assignment is deterministic: a seeded hash of the query id draws
from the configured class mix, so every execution backend serves the same
class schedule and the per-class numbers are backend-invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "DEADLINE_CLASSES",
    "DeadlineClass",
    "DeadlineTracker",
    "assign_deadline_class",
    "parse_deadline_mix",
]


@dataclass(frozen=True)
class DeadlineClass:
    """A named latency target.

    ``first_result_s`` bounds the time to the first partial-answer chunk;
    ``completion_s`` bounds the time to the full answer.  ``None`` means
    best-effort (always met).
    """

    name: str
    first_result_s: Optional[float] = None
    completion_s: Optional[float] = None

    def first_result_met(self, ttfr_s: Optional[float]) -> bool:
        """Whether a measured time-to-first-result satisfies the class."""
        if self.first_result_s is None:
            return True
        return ttfr_s is not None and ttfr_s <= self.first_result_s

    def completion_met(self, ttc_s: Optional[float]) -> bool:
        """Whether a measured time-to-completion satisfies the class."""
        if self.completion_s is None:
            return True
        return ttc_s is not None and ttc_s <= self.completion_s


#: The standard deadline classes.  Targets are expressed in virtual
#: seconds against the paper's cost constants (one cold bucket read is
#: 1.2 s): "interactive" wants a first chunk within a few bucket reads,
#: "standard" a complete answer within minutes, "batch" is best-effort.
DEADLINE_CLASSES: Dict[str, DeadlineClass] = {
    "interactive": DeadlineClass("interactive", first_result_s=30.0, completion_s=300.0),
    "standard": DeadlineClass("standard", first_result_s=120.0, completion_s=1_800.0),
    "batch": DeadlineClass("batch", first_result_s=None, completion_s=None),
}


def parse_deadline_mix(text: str) -> Dict[str, float]:
    """Parse a ``name=weight,name=weight`` class-mix specification.

    Weights are normalised to sum to one; unknown class names raise so a
    CLI typo cannot silently serve everything best-effort.
    """
    mix: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight_text = part.partition("=")
        name = name.strip()
        if name not in DEADLINE_CLASSES:
            raise ValueError(
                f"unknown deadline class {name!r}; available: {sorted(DEADLINE_CLASSES)}"
            )
        try:
            weight = float(weight_text)
        except ValueError as error:
            raise ValueError(f"bad weight for deadline class {name!r}: {weight_text!r}") from error
        if weight < 0:
            raise ValueError(f"deadline class {name!r} has a negative weight")
        mix[name] = mix.get(name, 0.0) + weight
    total = sum(mix.values())
    if not mix or total <= 0:
        raise ValueError(f"deadline mix {text!r} selects no classes")
    return {name: weight / total for name, weight in mix.items()}


def assign_deadline_class(query_id: int, mix: Mapping[str, float], seed: int) -> str:
    """Deterministically draw a class name for *query_id* from *mix*.

    The draw is a pure function of ``(seed, query_id)``, so the class
    schedule is identical on every execution backend.
    """
    names = sorted(mix)
    draw = random.Random(seed * 1_000_003 + query_id).random()
    cumulative = 0.0
    total = sum(mix[name] for name in names)
    for name in names:
        cumulative += mix[name] / total
        if draw <= cumulative:
            return name
    return names[-1]


@dataclass
class _ClassScore:
    """Mutable per-class tally."""

    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    first_result_met: int = 0
    completion_met: int = 0


class DeadlineTracker:
    """Scores every served query against its deadline class."""

    def __init__(self, classes: Optional[Mapping[str, DeadlineClass]] = None) -> None:
        self.classes: Dict[str, DeadlineClass] = dict(classes or DEADLINE_CLASSES)
        self._assigned: Dict[int, str] = {}
        self._scores: Dict[str, _ClassScore] = {}

    def assign(self, query_id: int, class_name: str) -> DeadlineClass:
        """Bind a query to a deadline class (at admission time)."""
        if class_name not in self.classes:
            raise ValueError(f"unknown deadline class {class_name!r}")
        self._assigned[query_id] = class_name
        return self.classes[class_name]

    def _score(self, class_name: str) -> _ClassScore:
        score = self._scores.get(class_name)
        if score is None:
            score = _ClassScore()
            self._scores[class_name] = score
        return score

    def on_admitted(self, query_id: int) -> None:
        """Count one admitted query against its class."""
        self._score(self._assigned[query_id]).admitted += 1

    def on_rejected(self, query_id: int) -> None:
        """Count one rejected query against its class."""
        self._score(self._assigned[query_id]).rejected += 1

    def on_completed(
        self, query_id: int, ttfr_s: Optional[float], ttc_s: Optional[float]
    ) -> None:
        """Score one completed query's measured latencies."""
        class_name = self._assigned[query_id]
        deadline = self.classes[class_name]
        score = self._score(class_name)
        score.completed += 1
        if deadline.first_result_met(ttfr_s):
            score.first_result_met += 1
        if deadline.completion_met(ttc_s):
            score.completion_met += 1

    def class_counts(self) -> Dict[str, Dict[str, int]]:
        """Raw per-class tallies keyed by class name (sorted), as plain ints.

        Unlike :meth:`rows` this exposes counts rather than hit rates, so
        the numbers can feed counters and envelope fixtures that must
        compare exactly.
        """
        return {
            name: {
                "admitted": score.admitted,
                "rejected": score.rejected,
                "completed": score.completed,
                "first_result_met": score.first_result_met,
                "completion_met": score.completion_met,
            }
            for name, score in sorted(self._scores.items())
        }

    def rows(self) -> List[Tuple[str, int, int, int, float, float]]:
        """Per-class SLA table: (class, admitted, rejected, completed,
        first-result hit rate, completion hit rate)."""
        rows = []
        for name in sorted(self._scores):
            score = self._scores[name]
            completed = score.completed
            rows.append(
                (
                    name,
                    score.admitted,
                    score.rejected,
                    completed,
                    (score.first_result_met / completed) if completed else 0.0,
                    (score.completion_met / completed) if completed else 0.0,
                )
            )
        return rows

    def summary(self) -> Dict[str, float]:
        """Aggregate SLA hit rates over every class (zero-safe)."""
        completed = sum(score.completed for score in self._scores.values())
        first_met = sum(score.first_result_met for score in self._scores.values())
        completion_met = sum(score.completion_met for score in self._scores.values())
        return {
            "completed": float(completed),
            "first_result_hit_rate": (first_met / completed) if completed else 0.0,
            "completion_hit_rate": (completion_met / completed) if completed else 0.0,
        }
