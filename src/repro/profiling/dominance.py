"""Dominant-value analysis (Section 3.2, Figure 7).

The *dominance factor* of an item is the fraction of its providers supporting
the dominant (most-provided) value.  Figure 7 plots the distribution of
dominance factors and the precision of dominant values (against the gold
standard) bucketed by dominance factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import Dataset
from repro.core.gold import GoldStandard, score_selection
from repro.core.records import DataItem

#: Bucket centers of Figure 7 (dominance factor 0.1 ... 0.9).
DOMINANCE_BUCKETS: Sequence[float] = tuple((i + 1) / 10 for i in range(9))


def dominance_bucket(factor: float) -> float:
    """Map a dominance factor to its Figure 7 bucket center.

    Buckets are [.05,.15) -> .1, ..., [.85, 1.0] -> .9 (the top bucket absorbs
    full dominance).
    """
    for center in DOMINANCE_BUCKETS:
        if factor < center + 0.05:
            return center
    return DOMINANCE_BUCKETS[-1]


@dataclass
class DominanceProfile:
    """Dominance factors and dominant-value precision for one snapshot."""

    factors: Dict[DataItem, float]
    precision_by_bucket: Dict[float, Tuple[int, int]]  # bucket -> (correct, total)

    def distribution(self) -> Dict[float, float]:
        """Figure 7 (left): share of items per dominance-factor bucket."""
        if not self.factors:
            return {b: 0.0 for b in DOMINANCE_BUCKETS}
        counts: Dict[float, int] = {b: 0 for b in DOMINANCE_BUCKETS}
        for factor in self.factors.values():
            counts[dominance_bucket(factor)] += 1
        n = len(self.factors)
        return {b: counts[b] / n for b in DOMINANCE_BUCKETS}

    def precision_curve(self) -> Dict[float, Optional[float]]:
        """Figure 7 (right): dominant-value precision per bucket."""
        curve: Dict[float, Optional[float]] = {}
        for bucket in DOMINANCE_BUCKETS:
            correct, total = self.precision_by_bucket.get(bucket, (0, 0))
            curve[bucket] = correct / total if total else None
        return curve

    def overall_precision(self) -> float:
        """Precision of dominant values over all gold items (VOTE strategy)."""
        correct = sum(c for c, _t in self.precision_by_bucket.values())
        total = sum(t for _c, t in self.precision_by_bucket.values())
        return correct / total if total else 0.0

    def fraction_with_factor_at_least(self, threshold: float) -> float:
        """Share of items whose dominance factor is >= threshold."""
        if not self.factors:
            return 0.0
        hits = sum(1 for f in self.factors.values() if f >= threshold)
        return hits / len(self.factors)


def dominance_profile(
    dataset: Dataset, gold: Optional[GoldStandard] = None
) -> DominanceProfile:
    """Compute Figure 7's inputs; precision buckets need a gold standard."""
    factors: Dict[DataItem, float] = {}
    dominant: Dict[DataItem, object] = {}
    for item in dataset.items:
        clustering = dataset.clustering(item)
        if not clustering.clusters:
            continue
        factors[item] = clustering.dominance_factor
        if gold is not None and item in gold:
            dominant[item] = clustering.dominant.representative
    precision: Dict[float, List[int]] = {}
    if dominant:
        items, _output, correct = score_selection(dataset, gold, dominant)
        matched = dict(zip(items, correct.tolist()))
        for item in dominant:
            cell = precision.setdefault(dominance_bucket(factors[item]), [0, 0])
            cell[1] += 1
            if matched[item]:
                cell[0] += 1
    return DominanceProfile(
        factors=factors,
        precision_by_bucket={b: (c, t) for b, (c, t) in precision.items()},
    )


def top_k_value_precision(
    dataset: Dataset, gold: GoldStandard, k: int, max_factor: float = 1.0
) -> Tuple[float, int]:
    """Precision of the k-th dominant value on low-dominance items.

    Supports the paper's observation that for items with dominance factor
    ~0.1, the first / second / third dominant values have precision
    .43/.33/.12.  Returns (precision, #items considered).
    """
    candidates: Dict[DataItem, object] = {}
    for item in gold.items:
        clustering = dataset.clustering(item)
        if not clustering.clusters or clustering.dominance_factor > max_factor:
            continue
        if len(clustering.clusters) < k:
            continue
        candidates[item] = clustering.clusters[k - 1].representative
    total = len(candidates)
    _items, _output, correct = score_selection(dataset, gold, candidates)
    return (int(correct.sum()) / total if total else 0.0), total
