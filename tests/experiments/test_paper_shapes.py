"""The paper's headline shapes at ``small`` scale, one experiment run each.

Each artifact test also renders its report; the ablation and extension
sweeps at the end pin the Section 5 findings.
"""

from dataclasses import replace

import pytest

from repro.core.attributes import AttributeTable
from repro.core.dataset import Dataset
from repro.core.records import ErrorReason
from repro.evaluation.errors import ERROR_CATEGORIES
from repro.evaluation.metrics import evaluate
from repro.evaluation.selection import recall_prefix_selection
from repro.experiments import (
    figure1, figure2_3, figure4, figure6, figure7, figure8, figure9,
    figure10, figure11, figure12, table1, table3, table4, table5, table7,
    table8, table9,
)
from repro.experiments.context import get_context
from repro.fusion.base import FusionProblem
from repro.fusion.copy_aware import AccuCopy
from repro.fusion.registry import make_method
from repro.fusion.seeding import consistent_item_seed
from repro.fusion.trust import sample_trust
from repro.profiling.consistency import consistency_profile

@pytest.fixture(scope="module")
def ctx():
    return get_context("small")


def _run(module, ctx, **kwargs):
    """``module``'s result on ``ctx``, after checking that it renders."""
    result = module.run(ctx, **kwargs)
    text = module.render(result)
    assert isinstance(text, str) and text
    return result


def _precision(ctx, domain, method, **run_kwargs):
    collection = ctx.collection(domain)
    result = method.run(ctx.problem(domain), **run_kwargs)
    return evaluate(collection.snapshot, collection.gold, result).precision


def test_table1(ctx):
    result = _run(table1, ctx)
    by_domain = {r.domain: r for r in result.rows}
    assert by_domain["stock"].num_sources == 55
    assert by_domain["flight"].num_sources == 38
    assert by_domain["stock"].considered_attrs == 16
    assert by_domain["flight"].considered_attrs == 6


def test_table3(ctx):
    result = _run(table3, ctx)
    # Paper: real-time attributes are the most consistent; statistical ones
    # (P/E, Volume, EPS...) the least.
    lows, highs = result.rankings["stock"]["num_values"]
    low_names = {a for a, _v in lows}
    high_names = {a for a, _v in highs}
    assert low_names & {"Previous close", "Last price", "Open price",
                        "Today's high price", "Today's low price",
                        "Today's change ($)", "Today's change (%)"}
    assert high_names & {"P/E", "Volume", "EPS", "Market cap", "Yield",
                         "Shares outstanding", "Dividend"}


def test_table4(ctx):
    result = _run(table4, ctx)
    rows = {r.source: r for r in result.rows}
    # Paper: authorities are accurate but imperfect and not fully covering.
    for name in ("Google Finance", "Yahoo! Finance", "NASDAQ", "MSN Money"):
        assert rows[name].accuracy is not None and rows[name].accuracy > 0.85
    assert rows["Bloomberg"].accuracy < rows["Google Finance"].accuracy
    assert rows["Airport average"].coverage < 0.3


def test_table5(ctx):
    result = _run(table5, ctx)
    assert [g.size for g in result.groups["stock"]] == [11, 2]
    assert [g.size for g in result.groups["flight"]] == [5, 4, 3, 2, 2]
    for domain, groups in result.groups.items():
        for group in groups:
            assert group.value_similarity > 0.95  # paper: .99-1.0
    # Paper: removing copiers raises dominant-value precision (Flight
    # strongly, Stock mildly).
    flight_with = result.vote_with_copiers["flight"]
    assert result.vote_without_copiers["flight"] > flight_with


def test_table7(ctx):
    result = _run(table7, ctx)
    assert len(result.rows) == 32  # 16 methods x 2 domains
    # Paper headline shapes:
    # - the best Flight method is copy-aware and clearly beats VOTE;
    flight_vote = result.row("flight", "Vote").precision_without_trust
    flight_copy = result.row("flight", "AccuCopy").precision_without_trust
    assert flight_copy > flight_vote
    # - on Stock the per-attribute Bayesian variants are at the top;
    stock_vote = result.row("stock", "Vote").precision_without_trust
    stock_attr = result.row("stock", "AccuFormatAttr").precision_without_trust
    assert stock_attr >= stock_vote
    # - seeding with sampled trust never hurts the ACCU family much.
    for domain in ("stock", "flight"):
        row = result.row(domain, "AccuCopy")
        assert row.precision_with_trust >= row.precision_without_trust - 0.02


def test_table8(ctx):
    result = _run(table8, ctx)
    for domain, rows in result.comparisons.items():
        assert len(rows) == 9
        for row in rows:
            assert row.fixed_errors >= 0 and row.new_errors >= 0
    # Paper: AccuCopy strongly improves AccuFormatAttr on Flight.
    flight = {(r.basic, r.advanced): r for r in result.comparisons["flight"]}
    assert flight[("AccuFormatAttr", "AccuCopy")].precision_delta > 0


def test_table9(ctx):
    result = _run(table9, ctx, max_days=3)
    for domain in ("stock", "flight"):
        for method, series in result.series[domain].items():
            assert series.minimum <= series.average <= 1.0
            assert series.deviation >= 0.0
    # Paper: AccuCopy's Flight average tops the table.
    flight = result.series["flight"]
    assert flight["AccuCopy"].average >= flight["Vote"].average


def test_figure1(ctx):
    result = _run(figure1, ctx)
    for domain, series in result.series.items():
        assert all(a >= b for a, b in zip(series, series[1:])), domain
    # Paper: the overwhelming majority of attributes are sparsely provided.
    assert result.below_quarter["stock"] > 0.5


def test_figure2_3(ctx):
    result = _run(figure2_3, ctx)
    # Paper: Stock ~.66 mean item redundancy, Flight ~.32 — Stock higher.
    assert result.mean_item["stock"] > result.mean_item["flight"]
    assert result.mean_object["stock"] > 0.8  # nearly all sources cover stocks


def test_figure4(ctx):
    result = _run(figure4, ctx)
    # Paper: Flight items are far more often single-valued than Stock items.
    shares = result.single_value_share
    assert shares["flight"] > shares["stock"]
    assert result.avg_num_values["stock"] > result.avg_num_values["flight"]


def test_figure6(ctx):
    result = _run(figure6, ctx)
    stock = result.full_shares["stock"]
    flight = result.full_shares["flight"]
    # Paper: semantics ambiguity dominates Stock; pure errors lead Flight.
    assert stock[ErrorReason.SEMANTICS_AMBIGUITY] == max(stock.values())
    assert flight.get(ErrorReason.PURE_ERROR, 0.0) > 0.25
    assert ErrorReason.UNIT_ERROR not in flight


def test_figure7(ctx):
    result = _run(figure7, ctx)
    for domain in ("stock", "flight"):
        curve = result.precision[domain]
        top = curve[-1]
        assert top is not None and top > 0.9  # high dominance => correct
        assert 0.8 < result.overall_precision[domain] <= 1.0


def test_figure8(ctx):
    result = _run(figure8, ctx)
    # Paper: mean accuracy ~.86 stock / ~.80 flight; most sources steady.
    assert 0.7 < result.mean_accuracy["stock"] <= 1.0
    assert 0.6 < result.mean_accuracy["flight"] <= 1.0
    assert result.steady_share["stock"] > 0.5
    assert result.steady_share["flight"] > 0.5
    for domain, series in result.dominant_over_time.items():
        assert all(0.7 <= v <= 1.0 for v in series.values()), domain


def test_figure9(ctx):
    result = _run(figure9, ctx, prefix_step=10)
    for domain in ("stock", "flight"):
        vote = result.curves[domain]["Vote"]
        # Paper: fusing a few high-recall sources beats fusing everything
        # (recall peaks early, then declines for VOTE).
        assert vote.peak_recall >= vote.final
        assert vote.peak_recall > 0.85


def test_figure10(ctx):
    result = _run(figure10, ctx)
    # Paper: the advanced method's gains concentrate on low-dominance items;
    # overall it at least matches VOTE on Flight.
    overall = result.overall["flight"]
    assert overall["AccuCopy"] >= overall["Vote"]


def test_figure11(ctx):
    result = _run(figure11, ctx)
    for domain, analysis in result.analyses.items():
        shares = analysis.shares()
        assert set(shares) == set(ERROR_CATEGORIES)
        total = sum(shares.values())
        assert total == 0.0 or abs(total - 1.0) < 1e-9


def test_figure12(ctx):
    result = _run(figure12, ctx)
    for domain in ("stock", "flight"):
        runtime = {p.method: p.runtime_seconds for p in result.points[domain]}
        # Paper: VOTE is the fastest method; ACCUCOPY pays for copy detection.
        assert runtime["Vote"] == min(runtime.values())
        assert runtime["AccuCopy"] > runtime["AccuPr"]


def test_ablation_attr_trust(ctx):
    """Global against per-attribute source trust (the paper's Table 8)."""
    stock = {
        name: _precision(ctx, "stock", make_method(name))
        for name in ("AccuSim", "AccuSimAttr")
    }
    # Stock: per-attribute trust captures the semantics-variant sources.
    assert stock["AccuSimAttr"] >= stock["AccuSim"] - 0.01


def test_ablation_copydetect(ctx):
    """Gated copy detection against raw Dong et al. counting (Section 5)."""
    rows = {
        domain: {
            "gated": _precision(ctx, domain, AccuCopy()),
            "raw": _precision(ctx, domain, AccuCopy(agreement_gate=0.0)),
        }
        for domain in ctx.domains
    }
    for domain, scores in rows.items():
        # The raw detector's false positives never help.
        assert scores["raw"] <= scores["gated"] + 0.02, domain
    # And on at least one domain they actively hurt (the paper's finding).
    assert any(
        scores["raw"] < scores["gated"] - 0.02 for scores in rows.values()
    )


def test_ablation_seed_trust(ctx):
    """Default trust priors against sampled trust seeding (Table 7)."""
    improvements = []
    for domain in ctx.domains:
        collection = ctx.collection(domain)
        for name in ("Invest", "TruthFinder", "AccuPr", "AccuFormatAttr"):
            plain = _precision(ctx, domain, make_method(name))
            sample = sample_trust(name, collection.snapshot, collection.gold)
            seeded = _precision(ctx, domain, make_method(name),
                                trust_seed=sample, freeze_trust=True)
            improvements.append(seeded - plain)
    # Sampled trust helps on average (the paper's across-the-board finding).
    assert sum(improvements) / len(improvements) > -0.01


def test_ablation_tolerance(ctx):
    """Equation 3's bucketing tolerance factor alpha (the paper fixes .01)."""
    snapshot, gold = ctx.stock.snapshot, ctx.stock.gold
    num_values = []
    for alpha in (0.001, 0.01, 0.05):
        table = AttributeTable.from_specs([
            replace(spec, tolerance_factor=alpha)
            for spec in snapshot.attributes
        ])
        clone = Dataset(snapshot.domain, snapshot.day, attributes=table)
        for meta in snapshot.sources.values():
            clone.add_source(meta)
        for item, source, claim in snapshot.iter_claims():
            clone.add_claim(source, item, claim)
        clone = clone.freeze()
        vote = make_method("Vote").run(FusionProblem(clone))
        num_values.append(consistency_profile(clone).mean_num_values)
        assert 0.7 < evaluate(clone, gold, vote).precision <= 1.0
    # Looser tolerance merges buckets monotonically.
    assert num_values[0] >= num_values[1] >= num_values[2]


def test_extensions(ctx):
    """Section 5's extensions must not hurt the baselines they extend."""
    for domain in ctx.domains:
        collection = ctx.collection(domain)
        seed = consistent_item_seed(ctx.problem(domain))
        selection = recall_prefix_selection(
            collection.snapshot, collection.gold, max_prefix=12
        )
        plain = _precision(ctx, domain, make_method("AccuPr"))
        seeded = _precision(ctx, domain, make_method("AccuPr"), trust_seed=seed)
        # Consistent-item seeding must not hurt the Bayesian baseline much.
        assert seeded >= plain - 0.03, domain
        # Source selection reproduces "less is more": a small prefix is at
        # least as good as fusing everything.
        assert selection.recall >= selection.all_sources_recall - 0.01
