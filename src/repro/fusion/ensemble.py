"""Ensembles of fusion methods (Section 5).

The paper: *"We neither observed one fusion method that always dominates
the others ... Can we combine the results of different fusion models to get
better results?"*

:func:`ensemble_vote` combines any set of :class:`FusionResult`s by
(optionally weighted) majority vote over the selected values, with
tolerance-aware value matching so near-identical numeric picks pool their
votes.  Weights default to uniform; passing each method's precision on a
validation slice turns it into a simple stacked ensemble.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import Dataset
from repro.core.records import DataItem, Value
from repro.errors import FusionError
from repro.fusion.base import FusionResult


def ensemble_vote(
    dataset: Dataset,
    results: Sequence[FusionResult],
    weights: Optional[Sequence[float]] = None,
    name: str = "Ensemble",
) -> FusionResult:
    """Combine fusion results by tolerance-aware weighted voting.

    Ties break toward the earlier (presumably more trusted) method in
    ``results``, making the combination deterministic.
    """
    if not results:
        raise FusionError("ensemble needs at least one result")
    if weights is None:
        weights = [1.0] * len(results)
    if len(weights) != len(results):
        raise FusionError("one weight per result required")
    if any(w < 0 for w in weights):
        raise FusionError("weights must be non-negative")

    items = set()
    for result in results:
        items.update(result.selected)

    selected: Dict[DataItem, Value] = {}
    for item in items:
        candidates: List[Tuple[Value, float, int]] = []  # value, votes, order
        for order, (result, weight) in enumerate(zip(results, weights)):
            value = result.selected.get(item)
            if value is None:
                continue
            for idx, (existing, votes, first) in enumerate(candidates):
                if dataset.values_match(item.attribute, existing, value):
                    candidates[idx] = (existing, votes + weight, first)
                    break
            else:
                candidates.append((value, weight, order))
        candidates.sort(key=lambda entry: (-entry[1], entry[2]))
        selected[item] = candidates[0][0]

    # Combined trust: weighted mean of the member methods' (normalized) trust.
    trust: Dict[str, float] = {}
    total_weight = sum(weights) or 1.0
    for result, weight in zip(results, weights):
        for source, value in result.trust.items():
            trust[source] = trust.get(source, 0.0) + weight * value / total_weight

    return FusionResult(
        method=name,
        selected=selected,
        trust=trust,
        rounds=max(result.rounds for result in results),
        converged=all(result.converged for result in results),
        runtime_seconds=sum(result.runtime_seconds for result in results),
        extras={"members": [result.method for result in results]},
    )


def precision_weighted_ensemble(
    dataset: Dataset,
    results: Sequence[FusionResult],
    validation_precisions: Dict[str, float],
    name: str = "WeightedEnsemble",
) -> FusionResult:
    """Ensemble weighted by each member's validation precision.

    Members missing from ``validation_precisions`` get the mean weight.
    """
    known = [
        validation_precisions[r.method]
        for r in results
        if r.method in validation_precisions
    ]
    fallback = sum(known) / len(known) if known else 1.0
    weights = [
        validation_precisions.get(result.method, fallback) for result in results
    ]
    return ensemble_vote(dataset, results, weights=weights, name=name)
