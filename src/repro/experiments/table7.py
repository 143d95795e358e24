"""Table 7 — precision of data-fusion methods on one snapshot.

For every method and domain: precision with the sampled trustworthiness
given as input (no iteration; ACCUCOPY additionally receives the known
copying groups), precision without it (the normal iterative run), and the
trustworthiness deviation/difference between the sampled and computed trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.evaluation.metrics import evaluate
from repro.experiments.context import ExperimentContext
from repro.experiments.report import format_table
from repro.fusion.registry import METHOD_NAMES
from repro.fusion.trust import sample_trust, trust_diagnostics

#: Table 7 of the paper: (prec w. trust, prec w/o trust) per method/domain.
PAPER_REFERENCE = {
    "stock": {
        "Vote": (None, 0.908), "Hub": (0.913, 0.907), "AvgLog": (0.910, 0.899),
        "Invest": (0.924, 0.764), "PooledInvest": (0.924, 0.856),
        "2-Estimates": (0.910, 0.903), "3-Estimates": (0.910, 0.905),
        "Cosine": (0.910, 0.900), "TruthFinder": (0.923, 0.911),
        "AccuPr": (0.910, 0.899), "PopAccu": (0.909, 0.892),
        "AccuSim": (0.918, 0.913), "AccuFormat": (0.918, 0.911),
        "AccuSimAttr": (0.950, 0.929), "AccuFormatAttr": (0.948, 0.930),
        "AccuCopy": (0.958, 0.892),
    },
    "flight": {
        "Vote": (None, 0.864), "Hub": (0.939, 0.857), "AvgLog": (0.919, 0.839),
        "Invest": (0.945, 0.754), "PooledInvest": (0.945, 0.921),
        "2-Estimates": (0.870, 0.754), "3-Estimates": (0.870, 0.708),
        "Cosine": (0.870, 0.791), "TruthFinder": (0.957, 0.793),
        "AccuPr": (0.910, 0.868), "PopAccu": (0.958, 0.925),
        "AccuSim": (0.903, 0.844), "AccuFormat": (0.903, 0.844),
        "AccuSimAttr": (0.952, 0.833), "AccuFormatAttr": (0.952, 0.833),
        "AccuCopy": (0.960, 0.943),
    },
}


@dataclass
class Table7Row:
    domain: str
    method: str
    precision_with_trust: Optional[float]
    precision_without_trust: float
    trust_deviation: Optional[float]
    trust_difference: Optional[float]


@dataclass
class Table7Result:
    rows: List[Table7Row]

    def row(self, domain: str, method: str) -> Table7Row:
        for candidate in self.rows:
            if candidate.domain == domain and candidate.method == method:
                return candidate
        raise KeyError((domain, method))


def run(
    ctx: ExperimentContext,
    method_names: Sequence[str] = METHOD_NAMES,
) -> Table7Result:
    from repro.parallel import MethodCall, solve_methods

    rows: List[Table7Row] = []
    for domain in ctx.domains:
        collection = ctx.collection(domain)
        snapshot, gold = collection.snapshot, collection.gold
        problem = ctx.problem(domain)

        # Every (method, seeded?) cell is an independent solve on the one
        # compiled problem — plan them all and fan out across the pool.
        samples = {name: sample_trust(name, snapshot, gold) for name in method_names}
        calls = [MethodCall(name) for name in method_names]
        seeded_names = [name for name in method_names if samples[name] is not None]
        seeded_calls = [
            MethodCall(
                name,
                kwargs=(
                    {"known_groups": collection.true_copy_groups()}
                    if name == "AccuCopy" else {}
                ),
                trust_seed=samples[name],
                freeze_trust=True,
            )
            for name in seeded_names
        ]
        outcomes = solve_methods(
            problem, calls + seeded_calls, scheduler=ctx.scheduler()
        )
        # Outcomes come back in plan order: plain calls, then seeded ones.
        plain_results = {
            name: oc.result for name, oc in zip(method_names, outcomes)
        }
        seeded_results = {
            name: oc.result
            for name, oc in zip(seeded_names, outcomes[len(calls):])
        }
        for name in method_names:
            plain = plain_results[name]
            plain_score = evaluate(snapshot, gold, plain)

            sample = samples[name]
            seeded_precision: Optional[float] = None
            diagnostics = None
            if sample is not None:
                seeded = seeded_results[name]
                seeded_precision = evaluate(snapshot, gold, seeded).precision
                diagnostics = trust_diagnostics(plain, sample)
            rows.append(
                Table7Row(
                    domain=domain,
                    method=name,
                    precision_with_trust=seeded_precision,
                    precision_without_trust=plain_score.precision,
                    trust_deviation=diagnostics.deviation if diagnostics else None,
                    trust_difference=diagnostics.difference if diagnostics else None,
                )
            )
    return Table7Result(rows=rows)


def render(result: Table7Result) -> str:
    blocks = []
    domains = sorted({r.domain for r in result.rows})
    for domain in domains:
        rows = [
            (
                r.method,
                r.precision_with_trust,
                r.precision_without_trust,
                r.trust_deviation,
                r.trust_difference,
                _paper(domain, r.method),
            )
            for r in result.rows
            if r.domain == domain
        ]
        blocks.append(
            format_table(
                ["Method", "prec w. trust", "prec w/o trust",
                 "Trust dev", "Trust diff", "Paper (w., w/o)"],
                rows,
                title=f"Table 7 [{domain}]",
            )
        )
    return "\n\n".join(blocks)


def _paper(domain: str, method: str) -> str:
    ref = PAPER_REFERENCE.get(domain, {}).get(method)
    if ref is None:
        return "-"
    with_trust = "-" if ref[0] is None else f"{ref[0]:.3f}"
    return f"({with_trust}, {ref[1]:.3f})"
