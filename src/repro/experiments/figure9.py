"""Figure 9 — fusion recall as sources are added.

Sources are ordered by recall (coverage x accuracy) and fused in growing
prefixes.  Paper headline: recall peaks after a few high-recall sources
(5 for Stock, 9 for Flight) and then declines as low-quality sources and
copiers join; copy-aware and popularity-aware methods flatten out instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.evaluation.ordering import (
    RecallCurve,
    recall_as_sources_added,
    sources_by_recall,
)
from repro.experiments.context import ExperimentContext
from repro.experiments.report import format_series

#: One method per category, as plotted in the paper.
STOCK_METHODS = ("Vote", "Hub", "Cosine", "3-Estimates", "AccuFormatAttr", "AccuCopy")
FLIGHT_METHODS = ("Vote", "PooledInvest", "Cosine", "2-Estimates", "PopAccu", "AccuCopy")

PAPER_REFERENCE = {
    "stock_peak_sources": 5,
    "flight_peak_sources": 9,
    "stock_single_source_best_recall": 0.93,
    "flight_single_source_best_recall": 0.91,
}


@dataclass
class Figure9Result:
    prefix_sizes: Dict[str, List[int]]
    curves: Dict[str, Dict[str, RecallCurve]]
    ordering: Dict[str, List[str]]


def run(
    ctx: ExperimentContext,
    stock_methods: Sequence[str] = STOCK_METHODS,
    flight_methods: Sequence[str] = FLIGHT_METHODS,
    prefix_step: int = 4,
) -> Figure9Result:
    curves: Dict[str, Dict[str, RecallCurve]] = {}
    orderings: Dict[str, List[str]] = {}
    sizes: Dict[str, List[int]] = {}
    for domain, methods in (("stock", stock_methods), ("flight", flight_methods)):
        collection = ctx.collection(domain)
        snapshot, gold = collection.snapshot, collection.gold
        order = sources_by_recall(snapshot, gold)
        n = len(order)
        prefix_sizes = sorted(
            set(
                list(range(1, min(12, n) + 1))
                + list(range(12, n + 1, prefix_step))
                + [n]
            )
        )
        curves[domain] = recall_as_sources_added(
            snapshot,
            gold,
            methods,
            ordering=order,
            prefix_sizes=prefix_sizes,
            problem=ctx.problem(domain),  # compile once, slice per prefix
            scheduler=ctx.scheduler(),  # prefixes fan out across the pool
        )
        orderings[domain] = order
        sizes[domain] = prefix_sizes
    return Figure9Result(prefix_sizes=sizes, curves=curves, ordering=orderings)


def render(result: Figure9Result) -> str:
    blocks = []
    for domain, curves in result.curves.items():
        series = {name: curve.recalls for name, curve in curves.items()}
        blocks.append(
            format_series(
                result.prefix_sizes[domain],
                series,
                title=f"Figure 9 [{domain}]: recall vs number of sources",
            )
        )
        peaks = ", ".join(
            f"{name} peaks at {curve.peak} sources ({curve.peak_recall:.3f},"
            f" final {curve.final:.3f})"
            for name, curve in curves.items()
        )
        blocks.append(peaks)
    return "\n\n".join(blocks)
