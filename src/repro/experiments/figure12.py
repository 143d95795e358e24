"""Figure 12 — fusion precision versus efficiency.

Runs every method on the report snapshot, recording wall-clock runtime and
precision.  The paper's finding (``PAPER_REFERENCE``) is the relative
ordering: VOTE sub-second, most iterative methods ~10x slower, per-attribute
variants slower still, and ACCUCOPY slowest (it reruns pairwise copy
detection whenever the selection changes).

Measured here at ``small`` scale, VOTE is still the fastest and ACCUCOPY is
slower than ACCUPR on both domains, but the rest of the paper's ordering does
not hold.  On Stock, INVEST and POOLEDINVEST are the slowest because they run
into the 60-round cap, and the per-attribute variants are among the fastest
(ACCUFORMATATTR converges in 3 rounds); ACCUCOPY is the slowest only on
Flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.evaluation.efficiency import EfficiencyPoint, efficiency_profile
from repro.experiments.context import ExperimentContext
from repro.experiments.report import format_table
from repro.fusion.registry import METHOD_NAMES

PAPER_REFERENCE = {
    "stock_fastest": "Vote",
    "stock_slowest": "AccuCopy",
    "stock_slowest_seconds": 855.0,
    "flight_slowest_seconds": 17.0,
}


@dataclass
class Figure12Result:
    points: Dict[str, List[EfficiencyPoint]]

    def runtime_of(self, domain: str, method: str) -> float:
        for point in self.points[domain]:
            if point.method == method:
                return point.runtime_seconds
        raise KeyError((domain, method))


def run(
    ctx: ExperimentContext, method_names: Sequence[str] = METHOD_NAMES
) -> Figure12Result:
    points: Dict[str, List[EfficiencyPoint]] = {}
    for domain in ctx.domains:
        collection = ctx.collection(domain)
        points[domain] = efficiency_profile(
            collection.snapshot,
            collection.gold,
            method_names,
            problem=ctx.problem(domain),
        )
    return Figure12Result(points=points)


def render(result: Figure12Result) -> str:
    blocks = []
    for domain, points in result.points.items():
        ordered = sorted(points, key=lambda p: p.runtime_seconds)
        blocks.append(
            format_table(
                ["Method", "Runtime (s)", "Precision", "Rounds"],
                [
                    (p.method, f"{p.runtime_seconds:.4f}", p.precision, p.rounds)
                    for p in ordered
                ],
                title=f"Figure 12 [{domain}]: precision vs execution time",
            )
        )
    return "\n\n".join(blocks)
