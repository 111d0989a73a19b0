"""Tests for the α controller and the offline trade-off curves it selects from."""

import pytest

from repro.core.adaptive import (
    AlphaController,
    TradeoffCurve,
    TradeoffPoint,
)


def make_curve(saturation, points):
    curve = TradeoffCurve(saturation_qps=saturation)
    for alpha, throughput, response in points:
        curve.add(
            TradeoffPoint(alpha=alpha, throughput_qps=throughput, avg_response_time_s=response)
        )
    return curve


# A high-saturation curve where giving up throughput buys little response
# time, and a low-saturation curve where a small throughput sacrifice buys a
# large response-time improvement (the paper's Figure 4 shapes).
HIGH_CURVE = make_curve(
    0.5,
    [
        (0.0, 0.22, 300.0),
        (0.25, 0.20, 250.0),
        (0.5, 0.17, 240.0),
        (0.75, 0.15, 235.0),
        (1.0, 0.14, 230.0),
    ],
)
LOW_CURVE = make_curve(
    0.1,
    [
        (0.0, 0.105, 290.0),
        (0.25, 0.104, 220.0),
        (0.5, 0.103, 180.0),
        (0.75, 0.102, 150.0),
        (1.0, 0.10, 135.0),
    ],
)


class TestTradeoffPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            TradeoffPoint(alpha=1.5, throughput_qps=1.0, avg_response_time_s=1.0)
        with pytest.raises(ValueError):
            TradeoffPoint(alpha=0.5, throughput_qps=-1.0, avg_response_time_s=1.0)


class TestTradeoffCurve:
    def test_empty_curve_rejected(self):
        empty = TradeoffCurve(saturation_qps=0.2)
        with pytest.raises(ValueError):
            empty.max_throughput()
        with pytest.raises(ValueError):
            empty.select_alpha()

    def test_normalisation_divides_by_maxima(self):
        normalized = HIGH_CURVE.normalized()
        assert max(t for _a, t, _r in normalized) == pytest.approx(1.0)
        assert max(r for _a, _t, r in normalized) == pytest.approx(1.0)
        assert [a for a, _t, _r in normalized] == sorted(a for a, _t, _r in normalized)

    def test_selection_respects_tolerance_at_high_saturation(self):
        # Only alpha in {0, 0.25} keep throughput within 20% of the max.
        assert HIGH_CURVE.select_alpha(tolerance=0.2) == 0.25
        # A very strict tolerance forces the greedy scheduler.
        assert HIGH_CURVE.select_alpha(tolerance=0.05) == 0.0

    def test_selection_picks_large_alpha_at_low_saturation(self):
        # Every alpha is within tolerance, so the best response time wins.
        assert LOW_CURVE.select_alpha(tolerance=0.2) == 1.0

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            HIGH_CURVE.select_alpha(tolerance=1.0)

    def test_equal_response_times_prefer_the_larger_alpha(self):
        curve = make_curve(0.3, [(0.0, 1.0, 10.0), (0.5, 1.0, 10.0), (1.0, 0.5, 5.0)])
        assert curve.select_alpha(tolerance=0.2) == 0.5


class TestAlphaController:
    def test_requires_curves(self):
        with pytest.raises(ValueError):
            AlphaController([])

    def test_picks_closest_curve(self):
        controller = AlphaController([LOW_CURVE, HIGH_CURVE], tolerance=0.2)
        assert controller.curve_for_saturation(0.12).saturation_qps == 0.1
        assert controller.curve_for_saturation(0.45).saturation_qps == 0.5

    def test_alpha_recommendation_varies_with_saturation(self):
        controller = AlphaController([LOW_CURVE, HIGH_CURVE], tolerance=0.2)
        assert controller.alpha_for_saturation(0.1) == 1.0
        assert controller.alpha_for_saturation(0.5) == 0.25
        # The paper's conclusion: increasing alpha becomes progressively more
        # attractive with less saturation.
        assert controller.alpha_for_saturation(0.1) > controller.alpha_for_saturation(0.5)

    def test_one_curve_serves_every_saturation(self):
        controller = AlphaController([HIGH_CURVE], tolerance=0.2)
        assert controller.alpha_for_saturation(0.0) == 0.25
        assert controller.alpha_for_saturation(100.0) == 0.25

    def test_zero_tolerance_keeps_the_best_throughput(self):
        controller = AlphaController([LOW_CURVE, HIGH_CURVE], tolerance=0.0)
        assert controller.alpha_for_saturation(0.1) == 0.0
        assert controller.alpha_for_saturation(0.5) == 0.0

    @pytest.mark.parametrize("tolerance", [-0.1, 1.0, 1.5])
    def test_invalid_tolerance_rejected_at_construction(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            AlphaController([LOW_CURVE, HIGH_CURVE], tolerance=tolerance)
