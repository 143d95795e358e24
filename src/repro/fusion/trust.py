"""Sampled source trustworthiness and the Table 7 trust diagnostics.

For each method the paper samples "the trustworthiness of each source with
respect to a gold standard *as it is defined in the method*" and compares it
with the trustworthiness the method computes at convergence:

* **trust deviation** — RMSE between sampled and computed trust
  (Equation 4);
* **trust difference** — mean computed minus mean sampled trust.

Sampling is method-specific because the methods define trust on different
scales: the Bayesian and IR methods use accuracy-like values in [0, 1]; HUB
and AVGLOG accumulate votes (so the count of provided values matters);
COSINE uses a cosine similarity in [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.dataset import Dataset
from repro.core.gold import GoldStandard, claim_scores
from repro.fusion.base import FusionResult


@dataclass
class TrustDiagnostics:
    """Table 7's last two columns for one method run."""

    deviation: float
    difference: float


def sampled_accuracy(dataset: Dataset, gold: GoldStandard) -> Dict[str, float]:
    """Per-source accuracy on the gold standard (the ACCU-family sample)."""
    scores = claim_scores(dataset, gold)
    return {
        s: correct / total
        for s, correct, total in zip(
            scores.view.sources, scores.n_correct, scores.n_gold
        )
        if total
    }


def _gold_counts(dataset: Dataset, gold: GoldStandard) -> Dict[str, int]:
    scores = claim_scores(dataset, gold)
    return dict(zip(scores.view.sources, scores.n_gold))


def sampled_vote_mass(dataset: Dataset, gold: GoldStandard) -> Dict[str, float]:
    """HUB-style sample: correct-claim count, normalized by the maximum."""
    counts = _gold_counts(dataset, gold)
    raw = {
        s: accuracy * counts[s]
        for s, accuracy in sampled_accuracy(dataset, gold).items()
    }
    peak = max(raw.values(), default=0.0)
    if peak <= 0:
        return raw
    return {s: v / peak for s, v in raw.items()}


def sampled_avglog(dataset: Dataset, gold: GoldStandard) -> Dict[str, float]:
    """AVGLOG-style sample: accuracy * log(claim count), max-normalized."""
    counts = _gold_counts(dataset, gold)
    raw = {
        s: accuracy * math.log(max(counts.get(s, 0), 2))
        for s, accuracy in sampled_accuracy(dataset, gold).items()
    }
    peak = max(raw.values(), default=0.0)
    if peak <= 0:
        return raw
    return {s: v / peak for s, v in raw.items()}


def sampled_cosine(dataset: Dataset, gold: GoldStandard) -> Dict[str, float]:
    """COSINE-style sample: cosine between claims and the gold vector.

    Positions of a source are all candidate values of its gold items: +1 on
    the claimed value, -1 elsewhere; the truth vector is +1 on the gold value
    and -1 elsewhere.
    """
    scores = claim_scores(dataset, gold)
    view = scores.view
    rows = np.flatnonzero(scores.gold_slot >= 0)
    slots = scores.gold_slot[rows]
    items = gold.columns().items
    k = np.zeros(len(items), dtype=np.int64)
    for slot in np.unique(slots).tolist():
        k[slot] = dataset.clustering(items[slot]).num_values
    positions = k[slots]
    # claimed and gold positions both disagree on a wrong claim
    agreement = positions - 4 * ~scores.correct[rows]
    sources = view.claim_source[rows]
    norm = np.bincount(sources, weights=positions, minlength=view.n_sources)
    dot = np.bincount(sources, weights=agreement, minlength=view.n_sources)
    return {
        s: d / n
        for s, d, n in zip(view.sources, dot.tolist(), norm.tolist())
        if n
    }


#: Method name -> sampling function.
_SAMPLERS = {
    "Hub": sampled_vote_mass,
    "AvgLog": sampled_avglog,
    "Invest": sampled_accuracy,
    "PooledInvest": sampled_accuracy,
    "Cosine": sampled_cosine,
    "2-Estimates": sampled_accuracy,
    "3-Estimates": sampled_accuracy,
    "TruthFinder": sampled_accuracy,
    "AccuPr": sampled_accuracy,
    "PopAccu": sampled_accuracy,
    "AccuSim": sampled_accuracy,
    "AccuFormat": sampled_accuracy,
    "AccuSimAttr": sampled_accuracy,
    "AccuFormatAttr": sampled_accuracy,
    "AccuCopy": sampled_accuracy,
}


def sample_trust(
    method_name: str, dataset: Dataset, gold: GoldStandard
) -> Optional[Dict[str, float]]:
    """The method-specific sampled trustworthiness; ``None`` for VOTE."""
    sampler = _SAMPLERS.get(method_name)
    if sampler is None:
        return None
    return sampler(dataset, gold)


def trust_diagnostics(
    result: FusionResult, sample: Dict[str, float]
) -> TrustDiagnostics:
    """Deviation (Equation 4) and difference between computed and sampled."""
    pairs = [
        (sample[s], result.trust[s])
        for s in result.trust
        if s in sample
    ]
    if not pairs:
        return TrustDiagnostics(deviation=0.0, difference=0.0)
    sampled = np.array([p[0] for p in pairs])
    computed = np.array([p[1] for p in pairs])
    deviation = float(np.sqrt(np.mean((sampled - computed) ** 2)))
    difference = float(np.mean(computed) - np.mean(sampled))
    return TrustDiagnostics(deviation=deviation, difference=difference)
