"""Table 8 — pairwise comparison of fusion methods.

For each (basic, advanced) pair: the number of the basic method's errors the
advanced one fixes, the number of new errors it introduces, and the net
precision change, per domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.evaluation.compare import TABLE8_PAIRS, MethodComparison, run_comparisons
from repro.experiments.context import ExperimentContext
from repro.experiments.report import format_table

#: Paper Table 8: (fixed, new, delta-precision) per pair per domain.
PAPER_REFERENCE = {
    "stock": {
        ("Hub", "AvgLog"): (3, 25, -0.008),
        ("Invest", "PooledInvest"): (376, 121, 0.09),
        ("2-Estimates", "3-Estimates"): (6, 2, 0.002),
        ("TruthFinder", "AccuSim"): (37, 32, 0.002),
        ("AccuPr", "AccuSim"): (70, 31, 0.014),
        ("AccuPr", "PopAccu"): (7, 26, -0.007),
        ("AccuSim", "AccuSimAttr"): (47, 3, 0.016),
        ("AccuSimAttr", "AccuFormatAttr"): (7, 5, 0.001),
        ("AccuFormatAttr", "AccuCopy"): (33, 136, -0.038),
    },
    "flight": {
        ("Hub", "AvgLog"): (2, 12, -0.018),
        ("Invest", "PooledInvest"): (101, 10, 0.167),
        ("2-Estimates", "3-Estimates"): (70, 95, -0.046),
        ("TruthFinder", "AccuSim"): (29, 1, 0.051),
        ("AccuPr", "AccuSim"): (1, 14, -0.024),
        ("AccuPr", "PopAccu"): (46, 15, 0.057),
        ("AccuSim", "AccuSimAttr"): (5, 11, -0.011),
        ("AccuSimAttr", "AccuFormatAttr"): (0, 0, 0.0),
        ("AccuFormatAttr", "AccuCopy"): (70, 10, 0.11),
    },
}


@dataclass
class Table8Result:
    comparisons: Dict[str, List[MethodComparison]]


def run(
    ctx: ExperimentContext,
    pairs: Sequence[Tuple[str, str]] = TABLE8_PAIRS,
) -> Table8Result:
    comparisons: Dict[str, List[MethodComparison]] = {}
    for domain in ctx.domains:
        collection = ctx.collection(domain)
        comparisons[domain] = run_comparisons(
            collection.snapshot,
            collection.gold,
            problem=ctx.problem(domain),
            pairs=pairs,
            scheduler=ctx.scheduler(),
        )
    return Table8Result(comparisons=comparisons)


def render(result: Table8Result) -> str:
    blocks = []
    for domain, rows in result.comparisons.items():
        table_rows = []
        for row in rows:
            paper = PAPER_REFERENCE.get(domain, {}).get((row.basic, row.advanced))
            table_rows.append(
                (
                    row.basic,
                    row.advanced,
                    row.fixed_errors,
                    row.new_errors,
                    f"{row.precision_delta:+.3f}",
                    str(paper) if paper else "-",
                )
            )
        blocks.append(
            format_table(
                ["Basic", "Advanced", "#Fixed", "#New", "dPrec", "Paper (fixed, new, d)"],
                table_rows,
                title=f"Table 8 [{domain}]",
            )
        )
    return "\n\n".join(blocks)
