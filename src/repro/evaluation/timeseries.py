"""Fusion precision over the observation period (Section 4.2, Table 9).

Runs every method on every daily snapshot and reports, per method, the
average, minimum, and standard deviation of the daily precision.

The days stream through a :class:`~repro.streaming.StreamRunner`: each
day's claims are diff-compiled against the previous day's universe
(:class:`~repro.core.delta.SeriesCompiler`) instead of recompiled from
scratch, and one compiled problem is shared by all methods.  With the
default ``warm_start=False`` every day still cold-starts the fixed point,
so the selections — and therefore every Table 9 number — are identical to
running each method on a fresh ``FusionProblem(snapshot)``;
``warm_start=True`` additionally resumes each method from the previous
day's converged trust, trading bit-equality for fewer rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.dataset import DatasetSeries
from repro.core.gold import GoldStandard
from repro.evaluation.metrics import evaluate


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
    warm_start: bool = False,
    scheduler=None,
) -> Dict[str, PrecisionSeries]:
    """Table 9: run each method on each day and summarize precision.

    Days stay sequential (delta compilation and warm starts are causal),
    but given a parallel :class:`~repro.parallel.SolveScheduler` the
    methods within each day solve across its workers — identical numbers
    either way.
    """
    from repro.streaming import StreamRunner

    wanted_days = set(days) if days is not None else None
    per_method: Dict[str, PrecisionSeries] = {
        name: PrecisionSeries(method=name, days=[], precisions=[])
        for name in method_names
    }
    runner = StreamRunner(
        method_names, method_kwargs, warm_start=warm_start, scheduler=scheduler
    )
    for snapshot in series:
        if wanted_days is not None and snapshot.day not in wanted_days:
            continue
        gold = gold_by_day[snapshot.day]
        results = runner.push(snapshot).results
        for name in method_names:
            score = evaluate(snapshot, gold, results[name])
            per_method[name].days.append(snapshot.day)
            per_method[name].precisions.append(score.precision)
    return per_method
