"""Section 5 extensions: per-category trust and multi-truth selection.

Two of the paper's "future research directions", implemented:

* **Per-category source quality** — *"data from one source may have
  different quality for data items of different categories; for example, a
  source may provide precise data for UA flights but low-quality data for
  AA-flights. Can we automatically detect such differences?"*
  :class:`AccuCategory` maintains trust per (source, object-category) pair,
  where the category is any caller-supplied function of the data item.

* **Multiple truths under semantics ambiguity** — *"in the presence of
  semantics ambiguity ... for each semantics there is a true value so there
  are multiple truths. Can we effectively find all correct values that fit
  at least one of the semantics?"*  :func:`select_plausible_values` returns,
  per item, every value whose posterior probability is within a factor of
  the winner's — the coherent alternative-semantics readings — instead of a
  single truth.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.records import DataItem, Value
from repro.fusion.base import FusionProblem, accumulate_by_cluster
from repro.fusion.bayesian import AccuSim, _TRUST_CLIP

CategoryFn = Callable[[DataItem], str]


def _object_prefix(item: DataItem) -> str:
    """Default category: leading alphabetic prefix of the object id.

    For the Flight domain this is the airline code (``AA119-SFO`` -> ``AA``),
    the paper's motivating example.
    """
    head = []
    for ch in item.object_id:
        if ch.isalpha():
            head.append(ch)
        else:
            break
    return "".join(head) or "_"


class AccuCategory(AccuSim):
    """ACCUSIM with trust per (source, item-category) cell.

    Uses the same smoothing scheme as the per-attribute variants: thin cells
    shrink toward the source's global accuracy.
    """

    name = "AccuCategory"
    per_attribute_trust = False  # we manage the trust matrix ourselves

    def __init__(self, category_fn: CategoryFn = _object_prefix,
                 smoothing: float = 4.0, **kwargs):
        super().__init__(**kwargs)
        self.category_fn = category_fn
        self.smoothing = smoothing
        self._categories: List[str] = []
        self._item_category: Optional[np.ndarray] = None

    def _prepare(self, problem: FusionProblem) -> None:
        labels = [self.category_fn(item) for item in problem.items]
        self._categories = sorted(set(labels))
        index = {c: i for i, c in enumerate(self._categories)}
        self._item_category = np.asarray([index[c] for c in labels], dtype=np.int64)

    def _initial_state(self, problem, trust_seed):
        self._prepare(problem)
        n_categories = len(self._categories)
        trust = np.full((problem.n_sources, n_categories), self.initial_trust)
        if trust_seed:
            base = problem.trust_vector(trust_seed, self.initial_trust)
            trust = np.repeat(base[:, None], n_categories, axis=1)
        return {"trust": trust}

    def _claim_trust(self, problem, state):
        categories = self._item_category[problem.claim_item]
        return state["trust"][problem.claim_source, categories]

    def _update_trust(self, problem, state, scores, selected):
        per_claim = scores[problem.claim_cluster]
        categories = self._item_category[problem.claim_item]
        n_categories = len(self._categories)
        flat = problem.claim_source * n_categories + categories
        sums = np.bincount(
            flat, weights=per_claim, minlength=problem.n_sources * n_categories
        ).reshape(problem.n_sources, n_categories)
        counts = np.bincount(
            flat, minlength=problem.n_sources * n_categories
        ).reshape(problem.n_sources, n_categories).astype(np.float64)
        global_acc = sums.sum(axis=1) / np.maximum(counts.sum(axis=1), 1.0)
        smoothed = (sums + self.smoothing * global_acc[:, None]) / (
            counts + self.smoothing
        )
        return np.clip(smoothed, *_TRUST_CLIP)

    def _package(self, problem, state, selected, rounds, converged, runtime):
        result = super(AccuSim, self)._package(
            problem,
            {"trust": state["trust"].mean(axis=1)},
            selected,
            rounds,
            converged,
            runtime,
        )
        result.method = self.name
        result.extras["categories"] = list(self._categories)
        result.extras["category_trust"] = {
            (problem.sources[s], category): float(state["trust"][s, c])
            for s in range(problem.n_sources)
            for c, category in enumerate(self._categories)
        }
        return result

    def category_trust(self, result) -> Dict[tuple, float]:
        return result.extras["category_trust"]


def select_plausible_values(
    problem: FusionProblem,
    method: Optional[AccuSim] = None,
    score_ratio: float = 0.5,
    max_values: int = 3,
) -> Dict[DataItem, List[Value]]:
    """All values plausible under *some* semantics, per item (Section 5).

    Runs the given ACCU-family method (default :class:`AccuSim`) to estimate
    source accuracies, then keeps every value whose *collective vote count*
    (sum of its providers' log-vote weights) is at least ``score_ratio``
    times the item winner's, capped at ``max_values``.  A coherent
    alternative-semantics reading (quarterly dividends, takeoff times) is
    backed by many reasonably-trusted sources and survives; a scattered
    error is backed by one or two and does not.

    Vote counts rather than posteriors are compared because the mutually-
    exclusive softmax is exponentially peaked — any second value would need
    nearly equal support to register at all.
    """
    fusion = method if method is not None else AccuSim()
    result = fusion.run(problem)
    # Recompute vote counts at the converged trust.
    trust = problem.trust_vector(result.trust, fusion.initial_trust)
    accuracy = np.clip(trust, *_TRUST_CLIP)
    votes = np.log(
        fusion.n_false_values * accuracy / (1.0 - accuracy)
    )[problem.claim_source]
    scores = np.maximum(accumulate_by_cluster(problem, votes), 0.0)

    # Keep clusters within score_ratio of their item's best, ordered by
    # descending score (stable on ties, like the per-item sort it replaces).
    best = np.maximum.reduceat(scores, problem.item_start[:-1])
    kept = np.flatnonzero(scores >= score_ratio * best[problem.cluster_item])
    order = np.lexsort((kept, -scores[kept], problem.cluster_item[kept]))
    ranked = kept[order]
    ranked_item = problem.cluster_item[ranked]
    bounds = np.searchsorted(ranked_item, np.arange(problem.n_items + 1))
    reps = problem.cluster_rep
    ranked_list = ranked.tolist()
    plausible: Dict[DataItem, List[Value]] = {}
    for item_idx, item in enumerate(problem.items):
        lo = int(bounds[item_idx])
        hi = min(int(bounds[item_idx + 1]), lo + max_values)
        plausible[item] = [reps[c] for c in ranked_list[lo:hi]]
    return plausible
