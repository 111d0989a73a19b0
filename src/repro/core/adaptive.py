"""Selection of the age bias α from offline trade-off curves.

Section 4 of the paper describes how α is chosen: trade-off curves of
(normalised) query throughput versus (normalised) response time are
measured offline for representative saturation levels by sweeping α
(Figure 4).  For a given saturation, :class:`AlphaController` takes the
closest curve and picks the α that minimises response time while giving
up no more than a user-specified **tolerance threshold** of the maximum
achievable throughput.  At low saturation that pushes α toward 1 (arrival
order — big response-time wins for a small throughput cost); at high
saturation toward small α (contention wins dominate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


def _checked_tolerance(tolerance: float) -> float:
    """*tolerance* itself, or ``ValueError`` unless it lies within [0, 1)."""
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be within [0, 1)")
    return tolerance


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of a trade-off curve: the outcome of running one α."""

    alpha: float
    throughput_qps: float
    avg_response_time_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be within [0, 1]")
        if self.throughput_qps < 0 or self.avg_response_time_s < 0:
            raise ValueError("throughput and response time must be non-negative")


@dataclass
class TradeoffCurve:
    """A throughput/response-time trade-off curve at one saturation level."""

    saturation_qps: float
    points: List[TradeoffPoint] = field(default_factory=list)

    def add(self, point: TradeoffPoint) -> None:
        """Add one measured point to the curve."""
        self.points.append(point)

    def max_throughput(self) -> float:
        """Best throughput achieved by any α on this curve."""
        if not self.points:
            raise ValueError("empty trade-off curve")
        return max(p.throughput_qps for p in self.points)

    def max_response_time(self) -> float:
        """Worst average response time on this curve (normalisation reference)."""
        if not self.points:
            raise ValueError("empty trade-off curve")
        return max(p.avg_response_time_s for p in self.points)

    def normalized(self) -> List[Tuple[float, float, float]]:
        """Figure 4 view: (alpha, throughput/max, response/max) triples."""
        max_tp = self.max_throughput() or 1.0
        max_rt = self.max_response_time() or 1.0
        return [
            (
                p.alpha,
                p.throughput_qps / max_tp if max_tp else 0.0,
                p.avg_response_time_s / max_rt if max_rt else 0.0,
            )
            for p in sorted(self.points, key=lambda p: p.alpha)
        ]

    def select_alpha(self, tolerance: float = 0.2) -> float:
        """Pick the α minimising response time within the throughput tolerance.

        "average response time is minimized without sacrificing more than
        20 % of maximum achievable throughput" (§4) corresponds to
        ``tolerance=0.2``.
        """
        _checked_tolerance(tolerance)
        if not self.points:
            raise ValueError("empty trade-off curve")
        floor = (1.0 - tolerance) * self.max_throughput()
        eligible = [p for p in self.points if p.throughput_qps >= floor]
        if not eligible:
            eligible = list(self.points)
        best = min(eligible, key=lambda p: (p.avg_response_time_s, -p.alpha))
        return best.alpha


class AlphaController:
    """Chooses α from offline trade-off curves and a tolerance threshold."""

    def __init__(self, curves: Sequence[TradeoffCurve], tolerance: float = 0.2) -> None:
        if not curves:
            raise ValueError("at least one trade-off curve is required")
        self.curves: List[TradeoffCurve] = sorted(curves, key=lambda c: c.saturation_qps)
        self.tolerance = _checked_tolerance(tolerance)

    def curve_for_saturation(self, saturation_qps: float) -> TradeoffCurve:
        """The offline curve whose saturation level is closest to *saturation_qps*."""
        return min(self.curves, key=lambda c: abs(c.saturation_qps - saturation_qps))

    def alpha_for_saturation(self, saturation_qps: float) -> float:
        """α recommended for an explicitly given saturation level."""
        return self.curve_for_saturation(saturation_qps).select_alpha(self.tolerance)

