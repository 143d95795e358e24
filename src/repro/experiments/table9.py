"""Table 9 — precision of data-fusion methods over the observation period.

Average, minimum, and standard deviation of each method's daily precision
over the month of snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.evaluation.timeseries import PrecisionSeries, precision_over_time
from repro.experiments.context import ExperimentContext
from repro.experiments.report import format_table
from repro.fusion.registry import METHOD_NAMES

#: Paper Table 9: (avg, min, deviation) per method per domain.
PAPER_REFERENCE = {
    "stock": {
        "Vote": (0.922, 0.898, 0.014), "Hub": (0.925, 0.895, 0.015),
        "AvgLog": (0.921, 0.895, 0.015), "Invest": (0.797, 0.764, 0.027),
        "PooledInvest": (0.871, 0.831, 0.015), "2-Estimates": (0.910, 0.811, 0.026),
        "3-Estimates": (0.923, 0.897, 0.014), "Cosine": (0.923, 0.894, 0.015),
        "TruthFinder": (0.930, 0.909, 0.013), "AccuPr": (0.922, 0.893, 0.015),
        "PopAccu": (0.912, 0.884, 0.016), "AccuSim": (0.932, 0.913, 0.012),
        "AccuFormat": (0.932, 0.911, 0.012), "AccuSimAttr": (0.941, 0.921, 0.011),
        "AccuFormatAttr": (0.941, 0.924, 0.010), "AccuCopy": (0.884, 0.801, 0.036),
    },
    "flight": {
        "Vote": (0.887, 0.861, 0.028), "Hub": (0.885, 0.850, 0.027),
        "AvgLog": (0.868, 0.838, 0.029), "Invest": (0.786, 0.748, 0.032),
        "PooledInvest": (0.979, 0.921, 0.013), "2-Estimates": (0.639, 0.588, 0.052),
        "3-Estimates": (0.718, 0.638, 0.034), "Cosine": (0.880, 0.786, 0.086),
        "TruthFinder": (0.818, 0.777, 0.031), "AccuPr": (0.893, 0.861, 0.030),
        "PopAccu": (0.972, 0.779, 0.048), "AccuSim": (0.866, 0.833, 0.032),
        "AccuFormat": (0.866, 0.833, 0.032), "AccuSimAttr": (0.956, 0.833, 0.050),
        "AccuFormatAttr": (0.956, 0.833, 0.050), "AccuCopy": (0.987, 0.943, 0.010),
    },
}


@dataclass
class Table9Result:
    series: Dict[str, Dict[str, PrecisionSeries]]

    def summary(self, domain: str, method: str) -> tuple:
        entry = self.series[domain][method]
        return entry.average, entry.minimum, entry.deviation


def run(
    ctx: ExperimentContext,
    method_names: Sequence[str] = METHOD_NAMES,
    max_days: Optional[int] = 8,
) -> Table9Result:
    """Run every method on (a stride of) the daily snapshots.

    ``max_days`` bounds the number of fused days (evenly strided across the
    period); pass ``None`` for the full month.  Each day's snapshot is
    compiled once and fused on its own by every method.
    """
    series: Dict[str, Dict[str, PrecisionSeries]] = {}
    for domain in ctx.domains:
        collection = ctx.collection(domain)
        all_days = collection.series.days
        if max_days is not None and len(all_days) > max_days:
            stride = max(1, len(all_days) // max_days)
            days: Optional[List[str]] = all_days[::stride][:max_days]
        else:
            days = None
        series[domain] = precision_over_time(
            collection.series, collection.gold_by_day, method_names, days=days,
            scheduler=ctx.scheduler(),
        )
    return Table9Result(series=series)


def render(result: Table9Result) -> str:
    blocks = []
    for domain, methods in result.series.items():
        rows = []
        for name, entry in methods.items():
            paper = PAPER_REFERENCE.get(domain, {}).get(name)
            rows.append(
                (
                    name,
                    entry.average,
                    entry.minimum,
                    entry.deviation,
                    str(paper) if paper else "-",
                )
            )
        blocks.append(
            format_table(
                ["Method", "Avg", "Min", "Deviation", "Paper (avg, min, dev)"],
                rows,
                title=f"Table 9 [{domain}] over {len(next(iter(methods.values())).days)} days",
            )
        )
    return "\n\n".join(blocks)
