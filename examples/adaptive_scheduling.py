#!/usr/bin/env python3
"""Workload-adaptive tuning of the age bias α.

Reproduces the selection rule described in §4 of the paper:

1. Offline, measure one throughput/response-time trade-off curve per
   saturation level by sweeping the age bias α over a representative trace.
2. Given a saturation level, take the closest curve and pick the α that
   minimises response time while staying within a tolerance threshold
   (20 %) of the maximum throughput.

The example then walks a day from a quiet morning to a saturated evening
and shows the α the controller picks at each arrival rate.

Run with::

    python examples/adaptive_scheduling.py
"""

from repro.core.adaptive import AlphaController
from repro.experiments.common import render_table
from repro.experiments.figure4 import build_tradeoff_curves
from repro.sim.simulator import SimulationConfig, Simulator
from repro.workload.generator import TraceConfig, TraceGenerator


def main() -> None:
    trace_config = TraceConfig(query_count=250, bucket_count=512, seed=11)
    trace = TraceGenerator(trace_config).generate()
    simulator = Simulator(SimulationConfig(bucket_count=trace_config.bucket_count))

    # ---- offline: measure the trade-off curves -------------------------
    print("measuring offline trade-off curves (alpha sweep per saturation)...")
    curves = build_tradeoff_curves(
        trace, simulator, saturation_fractions={"low": 0.45, "medium": 1.0, "high": 2.2}
    )
    rows = []
    for label, curve in curves.items():
        for alpha, throughput_norm, response_norm in curve.normalized():
            rows.append(
                (label, f"{curve.saturation_qps:.3f}", alpha, throughput_norm, response_norm)
            )
    print(
        render_table(
            ("saturation", "q/s", "alpha", "throughput/max", "response/max"), rows
        )
    )

    # ---- selection: the α each saturation level gets --------------------
    controller = AlphaController(list(curves.values()), tolerance=0.2)
    print()
    print("tolerance threshold: give up at most 20% of the maximum throughput")
    for label, curve in curves.items():
        chosen = controller.alpha_for_saturation(curve.saturation_qps)
        print(f"  saturation {label:6s} ({curve.saturation_qps:.3f} q/s) -> alpha = {chosen:g}")

    print()
    print("alpha over a day, from the quiet morning to the saturated evening:")
    low = curves["low"].saturation_qps
    high = curves["high"].saturation_qps
    for period, rate in (
        ("night", 0.5 * low),
        ("morning", low),
        ("midday", 0.5 * (low + high)),
        ("evening", high),
        ("flash crowd", 1.5 * high),
    ):
        alpha = controller.alpha_for_saturation(rate)
        curve = controller.curve_for_saturation(rate)
        print(
            f"  {period:11s} {rate:7.3f} q/s: closest curve {curve.saturation_qps:.3f} q/s "
            f"-> alpha = {alpha:g}"
        )


if __name__ == "__main__":
    main()
