"""Precision / recall of fusion results against a gold standard (Section 4.2).

* **precision** — fraction of output values (on gold items) consistent with
  the gold standard;
* **recall** — fraction of gold items whose value is output *and* correct.
  When all sources are fused every gold item is output, and recall equals
  precision (as the paper notes).

Figure 10 buckets precision by the item's dominance factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Union

import numpy as np

from repro.core.dataset import Dataset
from repro.core.gold import GoldStandard, score_selection
from repro.core.records import DataItem
from repro.fusion.base import FusionProblem, FusionResult
from repro.profiling.dominance import DOMINANCE_BUCKETS, dominance_bucket

#: Anything exposing ``spec``, ``tolerance`` and ``values_match`` per
#: attribute — a snapshot or a compiled (possibly source-restricted)
#: fusion problem.
DatasetLike = Union[Dataset, FusionProblem]


@dataclass
class PrecisionRecall:
    """Precision/recall of one fusion run."""

    precision: float
    recall: float
    num_output: int
    num_gold: int
    num_correct: int
    errors: List[DataItem]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"precision={self.precision:.3f} recall={self.recall:.3f} "
            f"({self.num_correct}/{self.num_output} output, {self.num_gold} gold)"
        )


def evaluate(
    dataset: DatasetLike, gold: GoldStandard, result: FusionResult
) -> PrecisionRecall:
    """Score one fusion result against the gold standard.

    ``dataset`` may be the snapshot or the compiled :class:`FusionProblem`
    the result was produced from (both provide the tolerances used for
    gold matching) — source-restricted problems have no backing dataset.
    """
    items, output, correct = score_selection(dataset, gold, result.selected)
    num_output = int(output.sum())
    num_correct = int(correct.sum())
    num_gold = len(items)
    return PrecisionRecall(
        precision=num_correct / num_output if num_output else 0.0,
        recall=num_correct / num_gold if num_gold else 0.0,
        num_output=num_output,
        num_gold=num_gold,
        num_correct=num_correct,
        errors=[items[i] for i in np.flatnonzero(output & ~correct).tolist()],
    )


def error_items(
    dataset: DatasetLike, gold: GoldStandard, result: FusionResult
) -> Set[DataItem]:
    """Gold items on which the result is wrong (or missing)."""
    items, _output, correct = score_selection(dataset, gold, result.selected)
    return {items[i] for i in np.flatnonzero(~correct).tolist()}


def precision_by_dominance(
    dataset: Dataset, gold: GoldStandard, result: FusionResult
) -> Dict[float, Optional[float]]:
    """Figure 10: fusion precision bucketed by dominance factor."""
    correct: Dict[float, int] = {b: 0 for b in DOMINANCE_BUCKETS}
    total: Dict[float, int] = {b: 0 for b in DOMINANCE_BUCKETS}
    items, output, matched = score_selection(dataset, gold, result.selected)
    for i in np.flatnonzero(output).tolist():
        clustering = dataset.clustering(items[i])
        if not clustering.clusters:
            continue
        bucket = dominance_bucket(clustering.dominance_factor)
        total[bucket] += 1
        if matched[i]:
            correct[bucket] += 1
    return {
        b: (correct[b] / total[b] if total[b] else None) for b in DOMINANCE_BUCKETS
    }
