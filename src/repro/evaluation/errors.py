"""Error analysis of the best fusion method (Section 4.2, Figure 11).

The paper manually classified a sample of the best method's mistakes into
seven causes.  We reproduce the taxonomy with a diagnostic cascade over each
error item:

1. *Selecting finer-granularity value* — the selected value rounds onto the
   gold value at some power-of-ten granularity (not really an error);
2. *Imprecise trustworthiness* — rerunning the method with the sampled
   source trustworthiness fixes the item;
3. *Not considering correct copying* — rerunning with sampled trust plus the
   known copying relationships fixes the item;
4. *Similar "false" values are provided* — similar values split/boost the
   wrong cluster;
5. *"False" value provided by high-accuracy sources*;
6. *"False" value dominant* — the wrong value is the dominant one with a
   majority;
7. *No one value dominant* — nothing stands out and the gold value has no
   edge in support or provider accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.dataset import Dataset
from repro.core.gold import GoldStandard
from repro.core.records import DataItem, Value
from repro.evaluation.metrics import error_items
from repro.fusion.base import FusionResult

#: Figure 11 category labels, in the paper's legend order.
ERROR_CATEGORIES = (
    "Selecting finer-granularity value",
    "Imprecise trustworthiness",
    "Not considering correct copying",
    'Similar "false" values are provided',
    '"False" value provided by high-accuracy sources',
    '"False" value dominant',
    "No one value dominant",
)


@dataclass
class ErrorAnalysis:
    """Figure 11: error counts of the best method by diagnosed cause."""

    method: str
    counts: Dict[str, int]
    num_errors: int

    def shares(self) -> Dict[str, float]:
        total = sum(self.counts.values())
        if total == 0:
            return {label: 0.0 for label in ERROR_CATEGORIES}
        return {
            label: self.counts.get(label, 0) / total for label in ERROR_CATEGORIES
        }


def _is_finer_granularity(selected: Value, truth: Value) -> bool:
    """Whether ``selected`` rounds onto ``truth`` at a power-of-ten step."""
    try:
        fine, coarse = float(selected), float(truth)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return False
    if fine == coarse or coarse == 0:
        return fine == coarse
    magnitude = math.floor(math.log10(abs(coarse))) if coarse else 0
    for exponent in range(magnitude - 5, magnitude + 1):
        granularity = 10.0 ** exponent
        if abs(round(fine / granularity) * granularity - coarse) <= granularity * 1e-9:
            return True
    return False


def classify_error(
    dataset: Dataset,
    gold: GoldStandard,
    item: DataItem,
    result: FusionResult,
    fixed_by_trust: bool,
    fixed_by_copying: bool,
    sampled_accuracy: Dict[str, float],
) -> str:
    """Diagnose one fusion error into a Figure 11 category."""
    selected = result.selected.get(item)
    truth = gold[item]
    if selected is not None and _is_finer_granularity(selected, truth):
        return ERROR_CATEGORIES[0]
    if fixed_by_trust:
        return ERROR_CATEGORIES[1]
    if fixed_by_copying:
        return ERROR_CATEGORIES[2]

    clustering = dataset.clustering(item)
    selected_cluster = None
    gold_cluster = None
    for cluster in clustering.clusters:
        if selected is not None and dataset.values_match(
            item.attribute, cluster.representative, selected
        ):
            selected_cluster = selected_cluster or cluster
        if dataset.values_match(item.attribute, cluster.representative, truth):
            gold_cluster = gold_cluster or cluster

    # Similar false values: several distinct near-by values back the winner.
    if selected_cluster is not None:
        tolerance = dataset.tolerance(item.attribute)
        if tolerance > 0:
            try:
                chosen = float(selected_cluster.representative)  # type: ignore[arg-type]
                neighbors = sum(
                    cluster.support
                    for cluster in clustering.clusters
                    if cluster is not selected_cluster
                    and abs(float(cluster.representative) - chosen)  # type: ignore[arg-type]
                    <= 5 * tolerance
                )
                if neighbors >= max(2, selected_cluster.support // 2):
                    return ERROR_CATEGORIES[3]
            except (TypeError, ValueError):
                pass

    def mean_accuracy(cluster) -> Optional[float]:
        values = [
            sampled_accuracy[s]
            for s in cluster.providers
            if s in sampled_accuracy
        ]
        return sum(values) / len(values) if values else None

    if selected_cluster is not None and gold_cluster is not None:
        chosen_acc = mean_accuracy(selected_cluster)
        gold_acc = mean_accuracy(gold_cluster)
        if chosen_acc is not None and gold_acc is not None and chosen_acc > gold_acc + 0.05:
            return ERROR_CATEGORIES[4]

    if (
        selected_cluster is not None
        and selected_cluster is clustering.dominant
        and clustering.dominance_factor >= 0.5
    ):
        return ERROR_CATEGORIES[5]
    return ERROR_CATEGORIES[6]


def analyze_errors(
    dataset: Dataset,
    gold: GoldStandard,
    result: FusionResult,
    result_with_trust: FusionResult,
    result_with_copying: Optional[FusionResult],
    sampled_accuracy: Dict[str, float],
    sample_size: int = 20,
) -> ErrorAnalysis:
    """Figure 11: classify (a sample of) the method's errors by cause."""
    errors = sorted(error_items(dataset, gold, result))
    trust_errors = error_items(dataset, gold, result_with_trust)
    copy_errors = (
        error_items(dataset, gold, result_with_copying)
        if result_with_copying is not None
        else trust_errors
    )
    stride = max(1, len(errors) // max(sample_size, 1))
    sampled = errors[::stride][:sample_size]
    counts: Dict[str, int] = {}
    for item in sampled:
        category = classify_error(
            dataset,
            gold,
            item,
            result,
            fixed_by_trust=item not in trust_errors,
            fixed_by_copying=item not in copy_errors,
            sampled_accuracy=sampled_accuracy,
        )
        counts[category] = counts.get(category, 0) + 1
    return ErrorAnalysis(method=result.method, counts=counts, num_errors=len(errors))
