"""Bayesian copy detection between sources (Dong et al., VLDB 2009).

Given a current truth selection, every source pair is scored on three
overlap counts:

* ``kt`` — shared items where both provide the same, *selected-true* value;
* ``kf`` — shared items where both provide the same, *not-selected* value
  (sharing false values is the strong evidence for copying);
* ``kd`` — shared items where they provide different values (evidence of
  independence).

With copy probability ``c``, per-item likelihoods under independence /
dependence follow the standard derivation, and the posterior dependence
probability combines them with a prior ``alpha``.  As the paper observes
(Section 4.2), this detector treats values *similar but not equal* to the
truth as false, which produces false positives on numeric data — exactly the
failure mode that hurts ACCUCOPY on the Stock domain.  The
``similarity_aware`` flag (our ablation) instead credits near-truth values
as true before counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.fusion.base import FusionProblem, bit_rows, pair_counts

#: Default prior probability that a random source pair is dependent.
DEFAULT_PRIOR = 0.2
#: Default probability that a copier copies any given item.
DEFAULT_COPY_PROB = 0.8
#: Default number of false values per item assumed by the model.
DEFAULT_N_FALSE = 10.0
#: Pairs sharing fewer items than this are never flagged.  Real copier
#: pairs mirror whole databases (hundreds of shared items); accurate honest
#: pairs with a handful of shared items can agree perfectly by chance.
DEFAULT_MIN_OVERLAP = 30
#: Pairs agreeing on less than this fraction of shared items are never
#: flagged.  Real copies agree almost perfectly (Table 5: value commonality
#: .99-1.0); without this gate, every pair of honest sources sharing the
#: correct value on items where the *current selection* is wrong accumulates
#: spurious shared-false evidence, and detection cascades into one giant
#: component — the false-positive failure the paper reports for ACCUCOPY on
#: Stock (Section 4.2).  Setting ``agreement_gate=0`` restores the raw
#: behaviour (used by the copy-detection ablation bench).
DEFAULT_AGREEMENT_GATE = 0.99

_EPS = 1e-12


@dataclass
class CopyDetectionResult:
    """Pairwise dependence probabilities over the problem's sources."""

    sources: List[str]
    probability: np.ndarray  # (n_sources, n_sources), symmetric, zero diagonal
    _index: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )

    def pair(self, a: str, b: str) -> float:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.sources)}
        return float(self.probability[self._index[a], self._index[b]])

    def groups(self, threshold: float = 0.5) -> List[List[str]]:
        """Connected components of the thresholded dependence graph."""
        adjacency = sp.csr_matrix(self.probability >= threshold)
        n_components, labels = connected_components(adjacency, directed=False)
        members: List[List[str]] = [[] for _ in range(n_components)]
        for node, label in enumerate(labels):
            members[label].append(self.sources[node])
        groups = [sorted(component) for component in members if len(component) > 1]
        groups.sort(key=len, reverse=True)
        return groups


def _overlap_counts(
    problem: FusionProblem,
    selected: np.ndarray,
    near_true: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kt, kf, kd) matrices over source pairs via popcounts.

    The selection-independent structures (membership bitsets, pairwise
    ``same`` and ``shared`` counts) are cached on the problem; only ``kt``
    is counted per call, over the membership bits ANDed with the true
    clusters' bits.
    """
    structures = problem.copy_structures
    true_clusters = selected
    if near_true is not None:
        true_clusters = np.concatenate([selected, np.flatnonzero(near_true)])
    true_bits = bit_rows(1, problem.n_clusters, 0, true_clusters)
    kt = pair_counts(structures.cluster_bits & true_bits)

    kf = structures.same - kt
    kd = structures.shared - structures.same
    return kt, kf, kd


def selection_accuracy(problem: FusionProblem, selected: np.ndarray) -> np.ndarray:
    """Per-source fraction of claims that agree with the current selection.

    This is the accuracy figure the detection likelihoods need: an observable
    frequency on the same scale as the overlap counts (posterior-mean trust
    scores systematically underestimate it, which makes honestly-agreeing
    accurate sources look like copiers).
    """
    selected_mask = np.zeros(problem.n_clusters, dtype=bool)
    selected_mask[selected] = True
    agree = selected_mask[problem.claim_cluster].astype(np.float64)
    hits = np.bincount(
        problem.claim_source, weights=agree, minlength=problem.n_sources
    )
    totals = np.maximum(problem.claims_per_source, 1.0)
    return hits / totals


def _near_true_clusters(problem: FusionProblem, selected: np.ndarray) -> np.ndarray:
    """Clusters highly similar to the selected one on their item."""
    near = np.zeros(problem.n_clusters, dtype=bool)
    sim_a, sim_b, sim_w = problem.similarity_edges
    if not len(sim_a):
        return near
    selected_mask = np.zeros(problem.n_clusters, dtype=bool)
    selected_mask[selected] = True
    strong = sim_w >= 0.8
    hits = selected_mask[sim_a] & strong
    near[sim_b[hits]] = True
    return near


def detect_copying(
    problem: FusionProblem,
    selected: np.ndarray,
    accuracy: np.ndarray,
    prior: float = DEFAULT_PRIOR,
    copy_probability: float = DEFAULT_COPY_PROB,
    n_false_values: float = DEFAULT_N_FALSE,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
    agreement_gate: float = DEFAULT_AGREEMENT_GATE,
    similarity_aware: bool = False,
) -> CopyDetectionResult:
    """Pairwise dependence probabilities given a truth selection.

    ``accuracy`` is the current per-source accuracy estimate (used in the
    likelihoods).  With ``similarity_aware=True`` values highly similar to
    the selected truth count as true when tallying shared false values — the
    robust variant the paper calls for in Section 5.
    """
    near_true = _near_true_clusters(problem, selected) if similarity_aware else None
    kt, kf, kd = _overlap_counts(problem, selected, near_true)

    acc = np.clip(accuracy, 0.05, 0.95)
    pair_acc = 0.5 * (acc[:, None] + acc[None, :])
    pt_indep = np.clip(acc[:, None] * acc[None, :], _EPS, 1 - _EPS)
    pf_indep = np.clip(
        (1 - acc[:, None]) * (1 - acc[None, :]) / n_false_values, _EPS, 1 - _EPS
    )
    pd_indep = np.clip(1.0 - pt_indep - pf_indep, _EPS, 1 - _EPS)

    c = copy_probability
    pt_dep = np.clip(c * pair_acc + (1 - c) * pt_indep, _EPS, 1 - _EPS)
    pf_dep = np.clip(c * (1 - pair_acc) + (1 - c) * pf_indep, _EPS, 1 - _EPS)
    pd_dep = np.clip((1 - c) * pd_indep, _EPS, 1 - _EPS)

    logit = (
        np.log(prior / (1.0 - prior))
        + kt * np.log(pt_dep / pt_indep)
        + kf * np.log(pf_dep / pf_indep)
        + kd * np.log(pd_dep / pd_indep)
    )
    probability = 1.0 / (1.0 + np.exp(-np.clip(logit, -60, 60)))
    shared = kt + kf + kd
    probability[shared < min_overlap] = 0.0
    with np.errstate(invalid="ignore"):
        agreement = np.where(shared > 0, (kt + kf) / np.maximum(shared, 1), 0.0)
    probability[agreement < agreement_gate] = 0.0
    np.fill_diagonal(probability, 0.0)
    return CopyDetectionResult(sources=list(problem.sources), probability=probability)


def independence_weights(
    problem: FusionProblem,
    dependence: np.ndarray,
    copy_probability: float = DEFAULT_COPY_PROB,
) -> np.ndarray:
    """Per-claim weight for how independently the claim was made.

    For claim (s, v) the weight is ``1 / (1 + c * sum over co-providers s'
    of v of P_dep(s, s'))``: a clique of ``k`` mutual copiers contributes
    roughly one vote in total instead of ``k`` (each member keeps weight
    ``~1/k``), while an independent claim keeps weight 1.  (Dong et al.
    discount multiplicatively per copier; the harmonic form preserves one
    collective vote for the group, which keeps the original's evidence from
    vanishing for large groups.)
    """
    scaled = copy_probability * dependence  # (S, S), zero diagonal
    per_claim = np.zeros(problem.n_claims)
    # Only sources with some nonzero dependence column can accumulate
    # dependent mass; computing the (n_clusters x n_sources) product for
    # those columns alone avoids densifying the full matrix (after the
    # agreement gate, copier pairs are a handful of sources).
    involved = np.flatnonzero(scaled.any(axis=0))
    if involved.size:
        membership = problem.copy_structures.membership.T  # (C, S) view
        # mass[c, k] = sum over providers s' of cluster c of c * P_dep(s', s_k)
        mass = np.asarray(membership @ scaled[:, involved])  # (C, |involved|)
        column = np.full(problem.n_sources, -1, dtype=np.int64)
        column[involved] = np.arange(involved.size)
        claim_column = column[problem.claim_source]
        hit = claim_column >= 0
        per_claim[hit] = mass[problem.claim_cluster[hit], claim_column[hit]]
    return 1.0 / (1.0 + per_claim)


def known_groups_matrix(
    problem: FusionProblem, groups: Sequence[Sequence[str]]
) -> np.ndarray:
    """A dependence matrix encoding ground-truth copy groups (P = 1)."""
    probability = np.zeros((problem.n_sources, problem.n_sources))
    for group in groups:
        indices = [problem.source_index[s] for s in group if s in problem.source_index]
        for i in indices:
            for j in indices:
                if i != j:
                    probability[i, j] = 1.0
    return probability
