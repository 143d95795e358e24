"""Source selection (Section 5 / 'Less is More')."""

import pytest

from repro.errors import FusionError
from repro.evaluation.selection import (
    greedy_source_selection,
    recall_prefix_selection,
)

from tests.helpers import build_dataset, build_gold


@pytest.fixture()
def scenario():
    """Two clean sources cover everything; a noisy mob outvotes them on o2."""
    claims = {
        ("clean1", "o1", "price"): 10.0,
        ("clean1", "o2", "price"): 20.0,
        ("clean2", "o1", "price"): 10.0,
        ("clean2", "o2", "price"): 20.0,
    }
    for k in range(3):
        claims[(f"noisy{k}", "o2", "price")] = 99.0
    ds = build_dataset(claims)
    gold = build_gold({("o1", "price"): 10.0, ("o2", "price"): 20.0})
    return ds, gold


class TestGreedySelection:
    def test_selects_clean_sources_and_beats_all(self, scenario):
        ds, gold = scenario
        result = greedy_source_selection(ds, gold)
        assert set(result.selected) <= {"clean1", "clean2"}
        assert result.recall == pytest.approx(1.0)
        # Fusing everything lets the noisy mob win o2.
        assert result.all_sources_recall < 1.0
        assert result.gain_over_all_sources > 0

    def test_max_sources_respected(self, scenario):
        ds, gold = scenario
        result = greedy_source_selection(ds, gold, max_sources=1)
        assert len(result.selected) == 1

    def test_history_monotone(self, scenario):
        ds, gold = scenario
        result = greedy_source_selection(ds, gold)
        assert result.history == sorted(result.history)

    def test_empty_pool_rejected(self, scenario):
        ds, gold = scenario
        with pytest.raises(FusionError):
            greedy_source_selection(ds, gold, candidate_pool=[])


class TestPrefixSelection:
    def test_peak_found(self, scenario):
        ds, gold = scenario
        result = recall_prefix_selection(ds, gold)
        assert result.recall >= result.all_sources_recall
        assert len(result.history) == ds.num_sources

    def test_on_generated_flight(self, flight_snapshot, flight_gold):
        result = recall_prefix_selection(
            flight_snapshot, flight_gold, max_prefix=12
        )
        # The paper's finding: a small prefix beats fusing all sources.
        assert len(result.selected) <= 12
        assert result.recall >= result.all_sources_recall - 0.02


class TestGreedySiblingRecalls:
    """One greedy round's sibling subsets, solved as one sweep."""

    @pytest.mark.parametrize("domain", ["stock", "flight"])
    @pytest.mark.parametrize("picked", [0, 2])
    def test_sweep_recalls_equal_one_at_a_time(self, domain, picked):
        from repro.evaluation.ordering import sources_by_recall
        from repro.evaluation.selection import _fusion_recall, _subset_recalls
        from repro.experiments.context import get_context

        context = get_context("tiny")
        collection = context.collection(domain)
        base = context.problem(domain)
        order = sources_by_recall(collection.snapshot, collection.gold)
        selected, pool = order[:picked], order[picked:]
        siblings = [selected + [candidate] for candidate in pool]
        for method in ("Vote", "AccuSim"):
            recalls = _subset_recalls(base, collection.gold, siblings, method)
            assert recalls == [
                _fusion_recall(base, collection.gold, subset, method)
                for subset in siblings
            ], method
