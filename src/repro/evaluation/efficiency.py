"""Precision versus efficiency (Section 4.2, Figure 12).

Runs every method on one snapshot, recording wall-clock runtime and
precision.  Absolute times are hardware-specific; the paper's finding is the
*relative* ordering — VOTE sub-second, iterative methods an order of
magnitude slower, per-attribute and copy-aware variants the slowest.  Here
VOTE stays the fastest, but an iterative method's runtime follows mostly its
number of rounds: at ``small`` scale the methods that hit the round cap
(INVEST and POOLEDINVEST on Stock) are the slowest, and per-attribute
variants that converge in a few rounds are among the fastest (see
:mod:`repro.experiments.figure12`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.dataset import Dataset
from repro.core.gold import GoldStandard
from repro.evaluation.metrics import evaluate
from repro.fusion.base import FusionProblem
from repro.fusion.registry import make_method


@dataclass
class EfficiencyPoint:
    """One Figure 12 point: a method's runtime and precision."""

    method: str
    runtime_seconds: float
    precision: float
    rounds: int


def efficiency_profile(
    dataset: Dataset,
    gold: GoldStandard,
    method_names: Sequence[str],
    problem: Optional[FusionProblem] = None,
    method_kwargs: Optional[Dict[str, dict]] = None,
) -> List[EfficiencyPoint]:
    """Time every method on one snapshot (problem construction excluded).

    Each method runs one cold :meth:`~repro.fusion.base.FusionMethod.run`.
    Selection-independent caches that are shared across methods — the
    copy-detection membership/overlap structures — are warmed *outside* the
    timed region: Figure 12 reports the cost of the solve, not of whichever
    method happens to take the cache miss.
    """
    shared = problem if problem is not None else FusionProblem(dataset)
    points: List[EfficiencyPoint] = []
    for name in method_names:
        kwargs = (method_kwargs or {}).get(name, {})
        method = make_method(name, **kwargs)
        if method.uses_copy_detection:
            shared.copy_structures  # noqa: B018 - warm the shared cache
        started = time.perf_counter()
        result = method.run(shared)
        elapsed = time.perf_counter() - started
        score = evaluate(dataset, gold, result)
        points.append(
            EfficiencyPoint(
                method=name,
                runtime_seconds=elapsed,
                precision=score.precision,
                rounds=result.rounds,
            )
        )
    return points
