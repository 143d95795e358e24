"""Incremental source ordering (Section 4.2, Figure 9).

The paper orders sources by recall (coverage x accuracy against the gold
standard), fuses growing prefixes, and plots recall versus the number of
sources.  The signature finding: recall peaks after a handful of high-recall
sources (5 for Stock, 9 for Flight) and *declines* as the long tail of
low-quality sources is added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.dataset import Dataset
from repro.core.gold import GoldStandard, recall_of_source
from repro.fusion.base import FusionProblem


def sources_by_recall(dataset: Dataset, gold: GoldStandard) -> List[str]:
    """Source ids ordered by decreasing recall (Figure 9's x-axis order)."""
    scored = [
        (recall_of_source(dataset, gold, source_id), source_id)
        for source_id in dataset.source_ids
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [source_id for _recall, source_id in scored]


@dataclass
class RecallCurve:
    """Recall of one method at every source-prefix size."""

    method: str
    recalls: List[float]

    @property
    def peak(self) -> int:
        """1-based prefix size at which recall peaks."""
        best = max(range(len(self.recalls)), key=lambda i: self.recalls[i])
        return best + 1

    @property
    def final(self) -> float:
        return self.recalls[-1] if self.recalls else 0.0

    @property
    def peak_recall(self) -> float:
        return max(self.recalls) if self.recalls else 0.0


def recall_as_sources_added(
    dataset: Dataset,
    gold: GoldStandard,
    method_names: Sequence[str],
    ordering: Optional[List[str]] = None,
    prefix_sizes: Optional[Sequence[int]] = None,
    problem: Optional[FusionProblem] = None,
    scheduler=None,
) -> Dict[str, RecallCurve]:
    """Figure 9: recall of each method over growing source prefixes.

    ``prefix_sizes`` defaults to every size from 1 to all sources; pass a
    sparser grid to keep large sweeps fast.  The snapshot is compiled to a
    :class:`FusionProblem` once (pass ``problem`` to reuse a cached one) and
    every prefix is carved out with ``restrict_sources`` — no per-prefix
    dataset copies or re-clustering.

    Prefixes are independent solves, so the sweep compiles every prefix
    once for all methods (:mod:`repro.fusion.batch`) and, given a parallel
    :class:`~repro.parallel.SolveScheduler`, fans out across its worker
    processes — identical recalls either way.
    """
    from repro.parallel import solve_sweep

    order = ordering if ordering is not None else sources_by_recall(dataset, gold)
    sizes = list(prefix_sizes) if prefix_sizes is not None else list(
        range(1, len(order) + 1)
    )
    base = problem if problem is not None else FusionProblem(dataset)
    rows = solve_sweep(
        base,
        list(method_names),
        [order[:size] for size in sizes],
        gold=gold,
        scheduler=scheduler,
    )
    return {
        name: RecallCurve(
            method=name, recalls=[row[c].recall or 0.0 for row in rows]
        )
        for c, name in enumerate(method_names)
    }
