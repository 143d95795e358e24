"""Fusion precision over the observation period (Section 4.2, Table 9).

Runs every method on every daily snapshot and reports, per method, the
average, minimum, and standard deviation of the daily precision.

As in the paper, each day's snapshot is fused on its own: it is compiled
once into a ``FusionProblem`` that all methods share, and every method
cold-starts on it through :func:`~repro.parallel.solve_methods`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.dataset import DatasetSeries
from repro.core.gold import GoldStandard
from repro.evaluation.metrics import evaluate
from repro.fusion.base import FusionProblem


@dataclass
class PrecisionSeries:
    """One method's per-day precision plus the Table 9 summary."""

    method: str
    days: List[str]
    precisions: List[float]

    @property
    def average(self) -> float:
        return sum(self.precisions) / len(self.precisions) if self.precisions else 0.0

    @property
    def minimum(self) -> float:
        return min(self.precisions) if self.precisions else 0.0

    @property
    def deviation(self) -> float:
        if len(self.precisions) < 2:
            return 0.0
        mean = self.average
        return math.sqrt(
            sum((p - mean) ** 2 for p in self.precisions) / len(self.precisions)
        )


def precision_over_time(
    series: DatasetSeries,
    gold_by_day: Dict[str, GoldStandard],
    method_names: Sequence[str],
    days: Optional[Sequence[str]] = None,
    method_kwargs: Optional[Dict[str, dict]] = None,
    scheduler=None,
) -> Dict[str, PrecisionSeries]:
    """Table 9: run each method on each day and summarize precision.

    Given a parallel :class:`~repro.parallel.SolveScheduler` the methods of
    each day solve across its workers — identical numbers either way.
    Every day registers under one key, so each day's export replaces the
    last rather than stacking up.
    """
    from repro.parallel import solve_methods

    wanted_days = set(days) if days is not None else None
    per_method: Dict[str, PrecisionSeries] = {
        name: PrecisionSeries(method=name, days=[], precisions=[])
        for name in method_names
    }
    for snapshot in series:
        if wanted_days is not None and snapshot.day not in wanted_days:
            continue
        gold = gold_by_day[snapshot.day]
        outcomes = solve_methods(
            FusionProblem(snapshot), method_names, scheduler=scheduler,
            key="table9-day", method_kwargs=method_kwargs,
        )
        for name, outcome in zip(method_names, outcomes):
            score = evaluate(snapshot, gold, outcome.result)
            per_method[name].days.append(snapshot.day)
            per_method[name].precisions.append(score.precision)
    return per_method
