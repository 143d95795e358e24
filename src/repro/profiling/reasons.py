"""Reasons for value inconsistency (Section 3.2, Figure 6).

The paper manually inspected a sample of inconsistent data items and
attributed each to semantics ambiguity, instance ambiguity, out-of-date data,
unit errors, or pure errors.  Our simulator tags every generated claim with
the mechanism that produced it, so the same analysis is automatic: for each
inconsistent item we look at the claims *outside the dominant cluster* and
attribute the item to the most common reason among them (resolving COPIED
tags to the underlying cause where possible).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.dataset import Dataset
from repro.core.records import DataItem, ErrorReason


@dataclass
class ReasonBreakdown:
    """Figure 6: share of inconsistent items per reason."""

    counts: Dict[ErrorReason, int]
    num_inconsistent_items: int

    def shares(self) -> Dict[ErrorReason, float]:
        total = sum(self.counts.values())
        if total == 0:
            return {}
        return {reason: count / total for reason, count in self.counts.items()}


def classify_item_reason(
    dataset: Dataset, item: DataItem
) -> Optional[ErrorReason]:
    """The dominant non-COPIED reason among an item's minority claims.

    Returns ``None`` for consistent items (single value after bucketing) and
    for inconsistent items whose minority claims are all untagged (which can
    happen when the minority holds the true value).
    """
    clustering = dataset.clustering(item)
    if clustering.num_values <= 1:
        return None
    claims = dataset.claims_on(item)
    dominant_sources = set(clustering.dominant.providers)
    votes: Counter = Counter()
    for source_id, claim in claims.items():
        if source_id in dominant_sources or claim.reason is None:
            continue
        votes[claim.reason] += 1
    if not votes:
        # The dominant cluster itself may be the erroneous one.
        for source_id in dominant_sources:
            reason = claims[source_id].reason
            if reason is not None:
                votes[reason] += 1
    if not votes:
        return None
    resolved = _resolve_copied(votes)
    return resolved.most_common(1)[0][0]


def _resolve_copied(votes: Counter) -> Counter:
    """Fold COPIED votes into the remaining reasons proportionally.

    A copied wrong value re-publishes some underlying mistake; when the
    sample contains other tags we attribute copies to the most common one,
    otherwise we keep them as pure errors.
    """
    copied = votes.pop(ErrorReason.COPIED, 0)
    if copied:
        if votes:
            top = votes.most_common(1)[0][0]
            votes[top] += copied
        else:
            votes[ErrorReason.PURE_ERROR] += copied
    return votes


def reason_breakdown(
    dataset: Dataset, items: Optional[Iterable[DataItem]] = None
) -> ReasonBreakdown:
    """Attribute every inconsistent item to an error mechanism (Figure 6)."""
    counts: Dict[ErrorReason, int] = {}
    inconsistent = 0
    for item in (items if items is not None else dataset.items):
        clustering = dataset.clustering(item)
        if clustering.num_values <= 1:
            continue
        inconsistent += 1
        reason = classify_item_reason(dataset, item)
        if reason is not None:
            counts[reason] = counts.get(reason, 0) + 1
    return ReasonBreakdown(counts=counts, num_inconsistent_items=inconsistent)


def sampled_reason_breakdown(
    dataset: Dataset, sample_size: int = 20, extremes: int = 5
) -> ReasonBreakdown:
    """The paper's sampling scheme: 20 random inconsistent items plus the 5
    items with the most distinct values."""
    measured: List[DataItem] = []
    inconsistent: List[DataItem] = []
    for item in dataset.items:
        if dataset.clustering(item).num_values > 1:
            inconsistent.append(item)
    inconsistent.sort(key=lambda i: (str(i.object_id), str(i.attribute)))
    by_num_values = sorted(
        inconsistent, key=lambda i: -dataset.clustering(i).num_values
    )
    measured.extend(by_num_values[:extremes])
    stride = max(1, len(inconsistent) // max(1, sample_size))
    for item in inconsistent[::stride]:
        if item not in measured:
            measured.append(item)
        if len(measured) >= sample_size + extremes:
            break
    return reason_breakdown(dataset, measured)
