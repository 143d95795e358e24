"""Source selection (Section 5, and Dong-Saha-Srivastava "Less is More").

The paper: *"on both data sets we observed that fusion on a few high recall
sources obtains the highest recall, but on all sources obtains a lower
recall ... This calls for source selection — can we automatically select a
subset of sources that lead to the best integration results?"*

Two selectors over a validation gold standard:

* :func:`greedy_source_selection` — forward selection: repeatedly add the
  source whose addition most improves fusion recall, stopping when no
  candidate improves it by at least ``min_gain``.
* :func:`recall_prefix_selection` — the paper's simpler heuristic: order
  sources by individual recall and cut the prefix at the recall peak
  (the Figure 9 curve's maximizer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.dataset import Dataset
from repro.core.gold import GoldStandard
from repro.errors import FusionError
from repro.evaluation.metrics import evaluate
from repro.evaluation.ordering import sources_by_recall
from repro.fusion.base import FusionProblem
from repro.fusion.registry import make_method


@dataclass
class SelectionResult:
    """Outcome of a source-selection run."""

    selected: List[str]
    recall: float
    all_sources_recall: float
    history: List[float] = field(default_factory=list)

    @property
    def gain_over_all_sources(self) -> float:
        return self.recall - self.all_sources_recall


def _fusion_recall(
    base: FusionProblem, gold: GoldStandard, sources: Sequence[str], method: str
) -> float:
    """Fusion recall on a source subset, carved from the compiled problem."""
    try:
        subproblem = base.restrict_sources(sources)
    except FusionError:  # every item lost all its claims
        return 0.0
    result = make_method(method).run(subproblem)
    return evaluate(subproblem, gold, result).recall


def _subset_recalls(
    base: FusionProblem,
    gold: GoldStandard,
    subsets: Sequence[Sequence[str]],
    method: str,
) -> List[float]:
    """Fusion recall of ``method`` on every subset, as one sweep.

    Every subset is an independent ``restrict_sources`` solve, compiled
    once by the batched sweep — identical recalls to the one-at-a-time
    :func:`_fusion_recall` loop.
    """
    from repro.parallel import solve_sweep

    rows = solve_sweep(base, [method], subsets, gold=gold)
    return [row[0].recall or 0.0 for row in rows]


def greedy_source_selection(
    dataset: Dataset,
    gold: GoldStandard,
    method: str = "Vote",
    max_sources: Optional[int] = None,
    min_gain: float = 1e-4,
    candidate_pool: Optional[Sequence[str]] = None,
) -> SelectionResult:
    """Greedy forward selection maximizing fusion recall on the gold slice.

    ``candidate_pool`` restricts the candidates (default: all sources,
    pre-ordered by individual recall so ties resolve sensibly).  Complexity
    is O(|selected| * |pool|) fusion runs — each round's candidate
    evaluations are independent and run as one sweep.
    """
    pool = list(
        candidate_pool if candidate_pool is not None else sources_by_recall(dataset, gold)
    )
    if not pool:
        raise FusionError("no candidate sources to select from")
    limit = max_sources if max_sources is not None else len(pool)
    base = FusionProblem(dataset)

    selected: List[str] = []
    history: List[float] = []
    current = 0.0
    while pool and len(selected) < limit:
        recalls = _subset_recalls(
            base, gold, [selected + [c] for c in pool], method
        )
        best_source = None
        best_recall = current
        for candidate, recall in zip(pool, recalls):
            if recall > best_recall + min_gain or (
                best_source is None and not selected
            ):
                if recall >= best_recall:
                    best_source = candidate
                    best_recall = recall
        if best_source is None:
            break
        selected.append(best_source)
        pool.remove(best_source)
        current = best_recall
        history.append(current)

    all_recall = _fusion_recall(base, gold, dataset.source_ids, method)
    return SelectionResult(
        selected=selected,
        recall=current,
        all_sources_recall=all_recall,
        history=history,
    )


def recall_prefix_selection(
    dataset: Dataset,
    gold: GoldStandard,
    method: str = "Vote",
    max_prefix: Optional[int] = None,
) -> SelectionResult:
    """Cut the recall-ordered source list at the fusion-recall peak."""
    order = sources_by_recall(dataset, gold)
    limit = min(max_prefix or len(order), len(order))
    base = FusionProblem(dataset)
    history = _subset_recalls(
        base, gold, [order[:size] for size in range(1, limit + 1)], method
    )
    best_size = max(range(len(history)), key=lambda i: (history[i], -i)) + 1
    best_recall = history[best_size - 1]
    all_recall = history[-1] if limit == len(order) else _fusion_recall(
        base, gold, order, method
    )
    return SelectionResult(
        selected=order[:best_size],
        recall=best_recall,
        all_sources_recall=all_recall,
        history=history,
    )
