"""Seed trustworthiness from consistent data items (Section 5).

The paper: *"Can we start with some seed trustworthiness better than the
currently employed default values to improve fusion results? For example,
the seed can come from sampling or based on results on the data items where
data are fairly consistent."*

:func:`consistent_item_seed` implements exactly that: it takes the items
whose dominance factor exceeds a threshold (where the dominant value is
almost certainly true — Figure 7), treats those dominant values as a
pseudo-gold-standard, and scores every source against it.  The result can be
passed to any method's ``trust_seed`` without touching the real gold
standard.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.fusion.base import FusionProblem

#: Items need at least this dominance factor to serve as pseudo-truth.
DEFAULT_DOMINANCE_THRESHOLD = 0.8
#: ...and at least this many providers.
DEFAULT_MIN_PROVIDERS = 4
#: Smoothing pseudo-counts toward the neutral prior.
DEFAULT_SMOOTHING = 2.0


def consistent_item_seed(
    problem: FusionProblem,
    dominance_threshold: float = DEFAULT_DOMINANCE_THRESHOLD,
    min_providers: int = DEFAULT_MIN_PROVIDERS,
    prior: float = 0.8,
    smoothing: float = DEFAULT_SMOOTHING,
) -> Dict[str, float]:
    """Per-source accuracy estimated on the near-unanimous items.

    Returns a trust seed on the accuracy scale in (0, 1), smoothed toward
    ``prior`` so sources with few consistent items stay near the default.
    """
    providers = problem.providers_per_item
    dominant_support = np.zeros(problem.n_items)
    np.maximum.at(
        dominant_support,
        problem.cluster_item,
        problem.cluster_support.astype(np.float64),
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        dominance = np.where(providers > 0, dominant_support / providers, 0.0)
    eligible_items = (dominance >= dominance_threshold) & (
        providers >= min_providers
    )

    # The pseudo-truth on an eligible item is its dominant cluster.
    item_best = np.zeros(problem.n_items, dtype=np.int64)
    best_support = np.full(problem.n_items, -1.0)
    for cluster in range(problem.n_clusters):
        item = problem.cluster_item[cluster]
        support = problem.cluster_support[cluster]
        if support > best_support[item]:
            best_support[item] = support
            item_best[item] = cluster

    claim_eligible = eligible_items[problem.claim_item]
    claim_correct = (
        problem.claim_cluster == item_best[problem.claim_item]
    ) & claim_eligible

    hits = np.bincount(
        problem.claim_source,
        weights=claim_correct.astype(np.float64),
        minlength=problem.n_sources,
    )
    totals = np.bincount(
        problem.claim_source,
        weights=claim_eligible.astype(np.float64),
        minlength=problem.n_sources,
    )
    seed = (hits + smoothing * prior) / (totals + smoothing)
    return {
        problem.sources[i]: float(np.clip(seed[i], 0.02, 0.98))
        for i in range(problem.n_sources)
    }


def seed_coverage(
    problem: FusionProblem,
    dominance_threshold: float = DEFAULT_DOMINANCE_THRESHOLD,
    min_providers: int = DEFAULT_MIN_PROVIDERS,
) -> float:
    """Fraction of items consistent enough to contribute to the seed."""
    providers = problem.providers_per_item
    dominant_support = np.zeros(problem.n_items)
    np.maximum.at(
        dominant_support,
        problem.cluster_item,
        problem.cluster_support.astype(np.float64),
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        dominance = np.where(providers > 0, dominant_support / providers, 0.0)
    eligible = (dominance >= dominance_threshold) & (providers >= min_providers)
    return float(eligible.mean()) if problem.n_items else 0.0
