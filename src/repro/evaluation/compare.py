"""Pairwise method comparison (Section 4.2, Table 8).

For each (basic, advanced) method pair the paper counts how many of the
basic method's errors the advanced method fixes, how many new errors it
introduces, and the net precision change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.dataset import Dataset
from repro.core.gold import GoldStandard
from repro.evaluation.metrics import error_items, evaluate
from repro.fusion.base import FusionProblem, FusionResult

#: The method pairs compared in Table 8.
TABLE8_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("Hub", "AvgLog"),
    ("Invest", "PooledInvest"),
    ("2-Estimates", "3-Estimates"),
    ("TruthFinder", "AccuSim"),
    ("AccuPr", "AccuSim"),
    ("AccuPr", "PopAccu"),
    ("AccuSim", "AccuSimAttr"),
    ("AccuSimAttr", "AccuFormatAttr"),
    ("AccuFormatAttr", "AccuCopy"),
)


@dataclass
class MethodComparison:
    """One Table 8 row: how the advanced method changes the basic one."""

    basic: str
    advanced: str
    fixed_errors: int
    new_errors: int
    precision_delta: float


def compare_methods(
    dataset: Dataset,
    gold: GoldStandard,
    basic_result: FusionResult,
    advanced_result: FusionResult,
) -> MethodComparison:
    """Count fixed/new errors between two fusion results (Table 8)."""
    basic_errors = error_items(dataset, gold, basic_result)
    advanced_errors = error_items(dataset, gold, advanced_result)
    fixed = len(basic_errors - advanced_errors)
    new = len(advanced_errors - basic_errors)
    basic_precision = evaluate(dataset, gold, basic_result).precision
    advanced_precision = evaluate(dataset, gold, advanced_result).precision
    return MethodComparison(
        basic=basic_result.method,
        advanced=advanced_result.method,
        fixed_errors=fixed,
        new_errors=new,
        precision_delta=advanced_precision - basic_precision,
    )


def run_comparisons(
    dataset: Dataset,
    gold: GoldStandard,
    problem: Optional[FusionProblem] = None,
    pairs: Sequence[Tuple[str, str]] = TABLE8_PAIRS,
    scheduler=None,
) -> List[MethodComparison]:
    """Run every method named in ``pairs`` once and compare the pairs.

    The distinct methods are one solve each on the shared compiled problem
    — an embarrassingly parallel plan, so they fan out through a parallel
    ``scheduler`` when one is passed and solve inline otherwise.
    """
    from repro.parallel import solve_methods

    names: List[str] = []
    for basic, advanced in pairs:
        for name in (basic, advanced):
            if name not in names:
                names.append(name)
    base = problem if problem is not None else FusionProblem(dataset)
    outcomes = solve_methods(base, names, scheduler=scheduler)
    results = {name: oc.result for name, oc in zip(names, outcomes)}
    return [
        compare_methods(dataset, gold, results[basic], results[advanced])
        for basic, advanced in pairs
    ]
