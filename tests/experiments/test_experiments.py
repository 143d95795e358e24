"""Every experiment runs at tiny scale and reproduces the paper's *shapes*."""

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    figure1,
    figure2_3,
    figure6,
    figure7,
    figure9,
    figure10,
    figure12,
    table1,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.experiments.context import ExperimentContext, get_context
from repro.experiments.runner import EXPERIMENTS, run_experiment


@pytest.fixture(scope="module")
def ctx():
    return get_context("tiny")


class TestContext:
    def test_scales_validated(self):
        with pytest.raises(ConfigError):
            ExperimentContext(scale="huge").stock  # noqa: B018

    def test_problem_cached(self, ctx):
        assert ctx.problem("stock") is ctx.problem("stock")

    def test_domains(self, ctx):
        assert ctx.domains == ("stock", "flight")


class TestStructure:
    def test_table1_counts(self, ctx):
        result = table1.run(ctx)
        by_domain = {r.domain: r for r in result.rows}
        assert by_domain["stock"].num_sources == 55
        assert by_domain["flight"].num_sources == 38
        assert by_domain["stock"].considered_attrs == 16
        assert by_domain["flight"].considered_attrs == 6
        assert by_domain["stock"].num_local_attrs > by_domain["stock"].num_global_attrs

    def test_figure1_zipf(self, ctx):
        result = figure1.run(ctx)
        for series in result.series.values():
            assert all(a >= b for a, b in zip(series, series[1:]))

    def test_figure2_3_stock_more_redundant(self, ctx):
        result = figure2_3.run(ctx)
        assert result.mean_item["stock"] > result.mean_item["flight"]

    def test_figure6_stock_semantics_flight_pure(self, ctx):
        from repro.core.records import ErrorReason
        result = figure6.run(ctx)
        stock = result.full_shares["stock"]
        flight = result.full_shares["flight"]
        assert stock[ErrorReason.SEMANTICS_AMBIGUITY] == max(stock.values())
        assert flight.get(ErrorReason.PURE_ERROR, 0) > 0.2

    def test_figure7_high_dominance_is_precise(self, ctx):
        result = figure7.run(ctx)
        for domain in ("stock", "flight"):
            top_bucket = result.precision[domain][-1]
            assert top_bucket is None or top_bucket > 0.9

    def test_table5_group_sizes(self, ctx):
        result = table5.run(ctx)
        assert [g.size for g in result.groups["stock"]] == [11, 2]
        assert [g.size for g in result.groups["flight"]] == [5, 4, 3, 2, 2]

    def test_table5_removal_improves_flight(self, ctx):
        result = table5.run(ctx)
        assert (
            result.vote_without_copiers["flight"]
            > result.vote_with_copiers["flight"]
        )

    def test_table6_is_static(self, ctx):
        result = table6.run(ctx)
        assert len(result.rows) == 16


class TestFusionExperiments:
    @pytest.fixture(scope="class")
    def t7(self, ctx):
        return table7.run(ctx)

    def test_table7_all_methods_both_domains(self, t7):
        assert len(t7.rows) == 32

    def test_table7_precisions_in_range(self, t7):
        for row in t7.rows:
            assert 0.0 <= row.precision_without_trust <= 1.0
            if row.precision_with_trust is not None:
                assert 0.0 <= row.precision_with_trust <= 1.0

    def test_table7_vote_has_no_trust_column(self, t7):
        for domain in ("stock", "flight"):
            assert t7.row(domain, "Vote").precision_with_trust is None

    def test_table7_seeded_accucopy_strong(self, t7):
        """Given sampled trust + known copying, AccuCopy is near the top
        (the paper's headline for both domains)."""
        for domain in ("stock", "flight"):
            row = t7.row(domain, "AccuCopy")
            assert row.precision_with_trust is not None
            assert row.precision_with_trust >= row.precision_without_trust - 0.02

    def test_table8_pairs_counted(self, ctx):
        result = table8.run(ctx, pairs=[("AccuPr", "AccuSim")])
        for rows in result.comparisons.values():
            row = rows[0]
            assert row.fixed_errors >= 0 and row.new_errors >= 0

    def test_figure9_curves_cover_prefixes(self, ctx):
        result = figure9.run(
            ctx, stock_methods=("Vote",), flight_methods=("Vote",),
            prefix_step=20,
        )
        for domain in ("stock", "flight"):
            curve = result.curves[domain]["Vote"]
            assert len(curve.recalls) == len(result.prefix_sizes[domain])

    def test_figure10_best_beats_vote_on_flight(self, ctx):
        result = figure10.run(ctx)
        overall = result.overall["flight"]
        assert overall["AccuCopy"] >= overall["Vote"]

    def test_figure12_vote_is_fastest(self, ctx):
        result = figure12.run(ctx, method_names=("Vote", "AccuPr", "AccuCopy"))
        for domain in ("stock", "flight"):
            assert result.runtime_of(domain, "Vote") <= result.runtime_of(
                domain, "AccuCopy"
            )

    def test_table9_summaries(self, ctx):
        result = table9.run(ctx, method_names=("Vote", "PopAccu"), max_days=2)
        avg, minimum, dev = result.summary("stock", "Vote")
        assert 0.0 <= minimum <= avg <= 1.0
        assert dev >= 0.0


class TestRunner:
    def test_all_ids_render(self, ctx):
        # cheap experiments only; the heavy ones are covered above
        for experiment_id in ("table1", "figure1", "figure2_3", "table6"):
            text = run_experiment(experiment_id, scale="tiny")
            assert isinstance(text, str) and text

    def test_aliases(self):
        text = run_experiment("figure2", scale="tiny")
        assert "Figure 2" in text

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            run_experiment("table99", scale="tiny")

    def test_no_workers_override(self):
        """Parallelism belongs to the context: a per-call override is
        refused before it can touch the context's workers or pool."""
        from repro.experiments.context import ExperimentContext

        context = ExperimentContext(scale="tiny")
        with pytest.raises(TypeError):
            run_experiment("table6", context=context, workers=2)
        assert context.workers == 1
        assert context._scheduler is None

    def test_registry_complete(self):
        assert len(EXPERIMENTS) == 18
