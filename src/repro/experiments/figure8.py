"""Figure 8 — source accuracy and its stability over time.

Three panels: (a) distribution of source accuracy on the report snapshot,
(b) distribution of per-source accuracy deviation over the observation
period, (c) precision of dominant values day by day.  Flight accuracy
statistics exclude the airline sites (they are the gold standard).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.context import ExperimentContext
from repro.experiments.report import format_series, format_table
from repro.profiling.accuracy import (
    accuracy_over_time,
    accuracy_profile,
    dominant_precision_over_time,
)

PAPER_REFERENCE = {
    "stock_mean_accuracy": 0.86,
    "flight_mean_accuracy": 0.80,
    "stock_mean_deviation": 0.06,
    "flight_mean_deviation": 0.05,
    "stock_steady_share": 0.59,
    "flight_steady_share": 0.60,
}


@dataclass
class Figure8Result:
    accuracy_histogram: Dict[str, Dict[float, float]]
    mean_accuracy: Dict[str, float]
    above_09: Dict[str, float]
    below_07: Dict[str, float]
    deviation_histogram: Dict[str, Dict[str, float]]
    steady_share: Dict[str, float]
    dominant_over_time: Dict[str, Dict[str, float]]


def run(ctx: ExperimentContext) -> Figure8Result:
    acc_hist: Dict[str, Dict[float, float]] = {}
    mean_acc: Dict[str, float] = {}
    above: Dict[str, float] = {}
    below: Dict[str, float] = {}
    dev_hist: Dict[str, Dict[str, float]] = {}
    steady: Dict[str, float] = {}
    dominant: Dict[str, Dict[str, float]] = {}
    for domain in ctx.domains:
        collection = ctx.collection(domain)
        source_ids = (
            collection.non_gold_source_ids() if domain == "flight" else None
        )
        profile = accuracy_profile(collection.snapshot, collection.gold, source_ids)
        acc_hist[domain] = profile.histogram()
        mean_acc[domain] = profile.mean_accuracy
        above[domain] = profile.fraction_above(0.9)
        below[domain] = profile.fraction_below(0.7)
        over_time = accuracy_over_time(
            collection.series, collection.gold_by_day, source_ids
        )
        dev_hist[domain] = over_time.deviation_histogram()
        steady[domain] = over_time.fraction_steady()
        dominant[domain] = dominant_precision_over_time(
            collection.series, collection.gold_by_day
        )
    return Figure8Result(
        accuracy_histogram=acc_hist,
        mean_accuracy=mean_acc,
        above_09=above,
        below_07=below,
        deviation_histogram=dev_hist,
        steady_share=steady,
        dominant_over_time=dominant,
    )


def render(result: Figure8Result) -> str:
    domains = list(result.accuracy_histogram.keys())
    buckets = sorted(
        {b for hist in result.accuracy_histogram.values() for b in hist}
    )
    panel_a = format_table(
        ["accuracy <="] + domains,
        [
            [b] + [result.accuracy_histogram[d].get(b, 0.0) for d in domains]
            for b in buckets
        ],
        title="Figure 8a: distribution of source accuracy",
    )
    dev_labels = list(next(iter(result.deviation_histogram.values())).keys())
    panel_b = format_table(
        ["deviation"] + domains,
        [
            [label] + [result.deviation_histogram[d].get(label, 0.0) for d in domains]
            for label in dev_labels
        ],
        title="Figure 8b: accuracy deviation over time",
    )
    days = sorted({day for series in result.dominant_over_time.values() for day in series})
    panel_c = format_series(
        days,
        {d: [result.dominant_over_time[d].get(day) for day in days] for d in domains},
        title="Figure 8c: precision of dominant values over time",
    )
    summary = "\n".join(
        f"{d}: mean accuracy {result.mean_accuracy[d]:.2f}, "
        f"{100 * result.above_09[d]:.0f}% sources above .9, "
        f"{100 * result.below_07[d]:.0f}% below .7, "
        f"{100 * result.steady_share[d]:.0f}% steady (dev < .05)"
        for d in domains
    )
    return "\n\n".join([panel_a, panel_b, panel_c, summary])
