"""Source accuracy over time (Section 3.3, Figure 8, Table 4).

Source accuracy is measured against the gold standard; accuracy *deviation*
is the standard deviation of a source's accuracy across the observation days;
Figure 8(c) tracks the precision of dominant values day by day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.dataset import Dataset, DatasetSeries
from repro.core.gold import (
    GoldStandard,
    accuracy_of_source,
    coverage_of_source,
    score_selection,
)


@dataclass
class SourceAccuracy:
    """One source's accuracy/coverage on one snapshot (Table 4 row)."""

    source_id: str
    accuracy: Optional[float]
    coverage: float


@dataclass
class AccuracyProfile:
    """Per-source accuracy for one snapshot."""

    rows: Dict[str, SourceAccuracy]

    def accuracies(self) -> List[float]:
        return [r.accuracy for r in self.rows.values() if r.accuracy is not None]

    @property
    def mean_accuracy(self) -> float:
        values = self.accuracies()
        return sum(values) / len(values) if values else 0.0

    def histogram(self, bucket_width: float = 0.1) -> Dict[float, float]:
        """Figure 8(a): distribution of source accuracy (bucketed)."""
        values = self.accuracies()
        if not values:
            return {}
        n_buckets = int(round(1.0 / bucket_width))
        counts = {i: 0 for i in range(1, n_buckets + 1)}
        for value in values:
            bucket = min(n_buckets, max(1, int(math.ceil(value / bucket_width - 1e-12))))
            counts[bucket] += 1
        return {
            round(i * bucket_width, 10): counts[i] / len(values)
            for i in range(1, n_buckets + 1)
        }

    def fraction_above(self, threshold: float) -> float:
        values = self.accuracies()
        if not values:
            return 0.0
        return sum(1 for v in values if v > threshold) / len(values)

    def fraction_below(self, threshold: float) -> float:
        values = self.accuracies()
        if not values:
            return 0.0
        return sum(1 for v in values if v < threshold) / len(values)


def accuracy_profile(
    dataset: Dataset,
    gold: GoldStandard,
    source_ids: Optional[Iterable[str]] = None,
) -> AccuracyProfile:
    """Accuracy and gold coverage of each source on one snapshot."""
    wanted = list(source_ids) if source_ids is not None else dataset.source_ids
    rows: Dict[str, SourceAccuracy] = {}
    for source_id in wanted:
        rows[source_id] = SourceAccuracy(
            source_id=source_id,
            accuracy=accuracy_of_source(dataset, gold, source_id),
            coverage=coverage_of_source(dataset, gold, source_id),
        )
    return AccuracyProfile(rows=rows)


@dataclass
class AccuracyOverTime:
    """Per-source accuracy series across the observation period."""

    days: List[str]
    series: Dict[str, List[Optional[float]]]

    def deviation_of(self, source_id: str) -> Optional[float]:
        """Standard deviation of one source's accuracy over time."""
        values = [v for v in self.series.get(source_id, []) if v is not None]
        if len(values) < 2:
            return None
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))

    def deviations(self) -> Dict[str, float]:
        result = {}
        for source_id in self.series:
            dev = self.deviation_of(source_id)
            if dev is not None:
                result[source_id] = dev
        return result

    def deviation_histogram(self, bucket_width: float = 0.01) -> Dict[str, float]:
        """Figure 8(b): distribution of accuracy deviation over sources."""
        deviations = list(self.deviations().values())
        if not deviations:
            return {}
        labels: List[Tuple[str, float, float]] = []
        for i in range(10):
            lo, hi = i * bucket_width, (i + 1) * bucket_width
            labels.append((f"[{lo:.2f}, {hi:.2f})", lo, hi))
        result = {
            label: sum(1 for d in deviations if lo <= d < hi) / len(deviations)
            for label, lo, hi in labels
        }
        top = 10 * bucket_width
        result[f"[{top:.2f}, )"] = sum(1 for d in deviations if d >= top) / len(deviations)
        return result

    def fraction_steady(self, threshold: float = 0.05) -> float:
        """Share of sources with accuracy deviation below ``threshold``."""
        deviations = list(self.deviations().values())
        if not deviations:
            return 0.0
        return sum(1 for d in deviations if d < threshold) / len(deviations)


def accuracy_over_time(
    series: DatasetSeries,
    gold_by_day: Dict[str, GoldStandard],
    source_ids: Optional[Iterable[str]] = None,
) -> AccuracyOverTime:
    """Track every source's accuracy across the observation period."""
    days: List[str] = []
    per_source: Dict[str, List[Optional[float]]] = {}
    for snapshot in series:
        gold = gold_by_day[snapshot.day]
        days.append(snapshot.day)
        wanted = list(source_ids) if source_ids is not None else snapshot.source_ids
        for source_id in wanted:
            value = (
                accuracy_of_source(snapshot, gold, source_id)
                if source_id in snapshot.sources
                else None
            )
            per_source.setdefault(source_id, []).append(value)
    return AccuracyOverTime(days=days, series=per_source)


def dominant_precision_over_time(
    series: DatasetSeries, gold_by_day: Dict[str, GoldStandard]
) -> Dict[str, float]:
    """Figure 8(c): precision of dominant values on each day."""
    result: Dict[str, float] = {}
    for snapshot in series:
        gold = gold_by_day[snapshot.day]
        dominant = snapshot.dominant_values(gold.items)
        _items, _output, correct = score_selection(snapshot, gold, dominant)
        total = len(dominant)
        result[snapshot.day] = int(correct.sum()) / total if total else 0.0
    return result
