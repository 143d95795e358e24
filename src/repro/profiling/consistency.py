"""Value-consistency measures (Section 3.2, Table 3, Figure 4).

For every data item we measure, after tolerance bucketing:

* **number of values** — ``|V(d)|``;
* **entropy** — Equation (1);
* **deviation** — Equation (2), relative for numeric attributes, absolute in
  minutes for times.

Table 3 reports per-attribute means (with and without the stale StockSmart
source); Figure 4 reports the distributions binned as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.dataset import Dataset
from repro.core.records import DataItem


@dataclass
class ItemConsistency:
    """Consistency measures of a single data item."""

    item: DataItem
    num_values: int
    entropy: float
    deviation: Optional[float]
    num_providers: int


@dataclass
class ConsistencyProfile:
    """Per-item consistency measures for one snapshot."""

    per_item: List[ItemConsistency]

    @property
    def mean_num_values(self) -> float:
        return _mean([r.num_values for r in self.per_item])

    @property
    def mean_entropy(self) -> float:
        return _mean([r.entropy for r in self.per_item])

    @property
    def mean_deviation(self) -> float:
        return _mean([r.deviation for r in self.per_item if r.deviation is not None])

    def fraction_single_value(self) -> float:
        """Share of items with exactly one distinct value after bucketing."""
        if not self.per_item:
            return 0.0
        return sum(1 for r in self.per_item if r.num_values == 1) / len(self.per_item)

    def num_values_histogram(self, max_bucket: int = 9) -> Dict[str, float]:
        """Figure 4 (left): distribution of the number of distinct values."""
        if not self.per_item:
            return {}
        counts: Dict[str, int] = {}
        for r in self.per_item:
            key = str(r.num_values) if r.num_values <= max_bucket else "More"
            counts[key] = counts.get(key, 0) + 1
        n = len(self.per_item)
        labels = [str(i) for i in range(1, max_bucket + 1)] + ["More"]
        return {k: counts.get(k, 0) / n for k in labels}

    def entropy_histogram(self) -> Dict[str, float]:
        """Figure 4 (middle): entropy distribution in the paper's bins."""
        edges = [i / 10 for i in range(11)]
        return _binned(
            [r.entropy for r in self.per_item], edges, last_label="[1.0, )"
        )

    def deviation_histogram(self) -> Dict[str, float]:
        """Figure 4 (right): deviation distribution in the paper's bins.

        Numeric deviations bin on a 0.1 grid, time deviations on a 1-minute
        grid (the paper overlays both scales on the same chart).
        """
        values = []
        for r in self.per_item:
            if r.deviation is None:
                continue
            values.append(r.deviation)
        edges = [i / 10 for i in range(11)]
        return _binned(values, edges, last_label="[1.0, )")

    def by_attribute(self) -> Dict[str, "ConsistencyProfile"]:
        groups: Dict[str, List[ItemConsistency]] = {}
        for r in self.per_item:
            groups.setdefault(r.item.attribute, []).append(r)
        return {a: ConsistencyProfile(rows) for a, rows in groups.items()}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _binned(values: List[float], edges: List[float], last_label: str) -> Dict[str, float]:
    if not values:
        return {}
    n = len(values)
    result: Dict[str, float] = {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        label = f"[{lo:.1f}, {hi:.1f})"
        result[label] = sum(1 for v in values if lo <= v < hi) / n
    result[last_label] = sum(1 for v in values if v >= edges[-1]) / n
    return result


def consistency_profile(
    dataset: Dataset,
    items: Optional[Iterable[DataItem]] = None,
    exclude_sources: Iterable[str] = (),
) -> ConsistencyProfile:
    """Measure value consistency of a snapshot (optionally excluding sources).

    ``exclude_sources`` supports Table 3's parenthesized variant: the numbers
    recomputed without the stale StockSmart source.
    """
    excluded = set(exclude_sources)
    source = dataset
    if excluded:
        source = dataset.without_sources(excluded)
    rows: List[ItemConsistency] = []
    for item in (items if items is not None else source.items):
        clustering = source.clustering(item)
        if not clustering.clusters:
            continue
        kind = source.spec(item.attribute).kind
        # Time deviations are reported in minutes; rescale to the shared
        # 0.1-per-minute bin grid used by Figure 4 only at render time.
        deviation = clustering.deviation(kind)
        rows.append(
            ItemConsistency(
                item=item,
                num_values=clustering.num_values,
                entropy=clustering.entropy(),
                deviation=deviation,
                num_providers=clustering.num_providers,
            )
        )
    return ConsistencyProfile(per_item=rows)


@dataclass
class AttributeInconsistency:
    """One attribute's Table 3 row for one measure."""

    attribute: str
    value: float


@dataclass
class InconsistencyRanking:
    """Table 3: the attributes with lowest / highest inconsistency."""

    measure: str
    lowest: List[AttributeInconsistency] = field(default_factory=list)
    highest: List[AttributeInconsistency] = field(default_factory=list)


def rank_attributes(
    profile: ConsistencyProfile, measure: str, top: int = 5
) -> InconsistencyRanking:
    """Rank attributes by mean num_values / entropy / deviation (Table 3)."""
    extractors = {
        "num_values": lambda p: p.mean_num_values,
        "entropy": lambda p: p.mean_entropy,
        "deviation": lambda p: p.mean_deviation,
    }
    if measure not in extractors:
        raise ValueError(f"unknown measure {measure!r}")
    extract = extractors[measure]
    scores = [
        AttributeInconsistency(attribute=a, value=extract(sub))
        for a, sub in profile.by_attribute().items()
    ]
    scores.sort(key=lambda s: s.value)
    return InconsistencyRanking(
        measure=measure,
        lowest=scores[:top],
        highest=list(reversed(scores[-top:])),
    )
