"""Gold-standard construction by authority voting (Section 2.2)."""

import gc
import pickle

import numpy as np
import pytest

from repro.core.attributes import (
    TIME_TOLERANCE_MINUTES,
    AttributeSpec,
    AttributeTable,
)
from repro.core.dataset import Dataset
from repro.core.gold import (
    GoldStandard,
    accuracy_of_source,
    build_gold_standard,
    claim_scores,
    coverage_of_source,
    recall_of_source,
    score_selection,
)
from repro.core.records import Claim, DataItem, SourceMeta
from repro.errors import GoldStandardError, SchemaError

from tests.helpers import build_dataset, build_gold


def _authority_dataset():
    table = AttributeTable.from_specs([AttributeSpec("price")])
    ds = Dataset(domain="t", day="d", attributes=table)
    for sid, authority in (("a1", True), ("a2", True), ("a3", True), ("web", False)):
        ds.add_source(SourceMeta(sid, is_authority=authority))
    item = DataItem("o1", "price")
    ds.add_claim("a1", item, Claim(10.0))
    ds.add_claim("a2", item, Claim(10.0))
    ds.add_claim("a3", item, Claim(99.0))
    ds.add_claim("web", item, Claim(50.0))
    # o2 covered by too few authorities
    ds.add_claim("a1", DataItem("o2", "price"), Claim(20.0))
    return ds.freeze()


class TestBuildGoldStandard:
    def test_majority_vote_among_authorities(self):
        ds = _authority_dataset()
        gold = build_gold_standard(ds, ["o1", "o2"], min_providers=3)
        assert gold[DataItem("o1", "price")] == 10.0

    def test_min_providers_filters_items(self):
        ds = _authority_dataset()
        gold = build_gold_standard(ds, ["o1", "o2"], min_providers=3)
        assert DataItem("o2", "price") not in gold

    def test_gold_objects_filter(self):
        ds = _authority_dataset()
        with pytest.raises(GoldStandardError):
            build_gold_standard(ds, ["o3"], min_providers=1)

    def test_explicit_authorities(self):
        ds = _authority_dataset()
        gold = build_gold_standard(
            ds, ["o1"], min_providers=1, authority_ids=["a3"]
        )
        assert gold[DataItem("o1", "price")] == 99.0

    def test_no_authorities_raises(self):
        ds = build_dataset({("s1", "o1", "price"): 1.0})
        with pytest.raises(GoldStandardError):
            build_gold_standard(ds, ["o1"])


class TestSourceScores:
    def test_accuracy(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s1", "o2", "price"): 99.0,
            ("s2", "o1", "price"): 10.0,
        })
        gold = build_gold({("o1", "price"): 10.0, ("o2", "price"): 20.0})
        assert accuracy_of_source(ds, gold, "s1") == pytest.approx(0.5)
        assert accuracy_of_source(ds, gold, "s2") == pytest.approx(1.0)

    def test_accuracy_none_when_no_gold_items(self):
        ds = build_dataset({("s1", "o9", "price"): 10.0})
        gold = build_gold({("o1", "price"): 10.0})
        assert accuracy_of_source(ds, gold, "s1") is None

    def test_coverage(self):
        ds = build_dataset({("s1", "o1", "price"): 10.0})
        gold = build_gold({("o1", "price"): 10.0, ("o2", "price"): 20.0})
        assert coverage_of_source(ds, gold, "s1") == pytest.approx(0.5)

    def test_recall_is_coverage_times_accuracy(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s1", "o2", "price"): 999.0,
        })
        gold = build_gold({
            ("o1", "price"): 10.0,
            ("o2", "price"): 20.0,
            ("o3", "price"): 30.0,
        })
        # covers 2/3 of gold, right on 1 of them
        assert recall_of_source(ds, gold, "s1") == pytest.approx(1 / 3)


class TestGoldOnGenerated:
    def test_gold_items_cover_only_gold_objects(self, stock_collection):
        gold = stock_collection.gold
        assert gold.objects <= set(stock_collection.gold_objects)

    def test_authority_accuracy_is_high(self, stock_collection):
        ds, gold = stock_collection.snapshot, stock_collection.gold
        acc = accuracy_of_source(ds, gold, "google_finance")
        assert acc is not None and acc > 0.8


# ---------------------------------------------------------------------------
# Columnar scoring: every vectorized path equals the scalar is_correct walk.
# ---------------------------------------------------------------------------

def _scalar_counts(dataset, gold, source_id):
    """The per-source gold walk the columnar scorer replaces."""
    total = correct = 0
    for item, claim in dataset.claims_by(source_id).items():
        if item in gold:
            total += 1
            correct += gold.is_correct(dataset, item, claim.value)
    return total, correct


def _assert_claims_match_scalar(dataset, gold):
    scores = claim_scores(dataset, gold)
    view = scores.view
    for k in range(view.n_claims):
        item = view.items[view.claim_item[k]]
        in_gold = item in gold
        assert (scores.gold_slot[k] >= 0) == in_gold, item
        expected = in_gold and gold.is_correct(
            dataset, item, view.values[view.claim_value[k]]
        )
        assert bool(scores.correct[k]) == expected, (item, k)
    for source_id in dataset.source_ids:
        total, correct = _scalar_counts(dataset, gold, source_id)
        assert accuracy_of_source(dataset, gold, source_id) == (
            correct / total if total else None
        )
        assert recall_of_source(dataset, gold, source_id) == (
            correct / len(gold) if len(gold) else 0.0
        )
        assert coverage_of_source(dataset, gold, source_id) == (
            total / len(gold) if len(gold) else 0.0
        )


class TestClaimScoresOnGenerated:
    @pytest.mark.parametrize("domain", ["stock", "flight"])
    def test_every_claim_of_every_tiny_snapshot(
        self, domain, stock_collection, flight_collection
    ):
        collection = {"stock": stock_collection, "flight": flight_collection}[domain]
        for snapshot in collection.series:
            _assert_claims_match_scalar(snapshot, collection.gold_for(snapshot.day))

    def test_cached_per_frozen_pair(self, stock_collection):
        snapshot, gold = stock_collection.snapshot, stock_collection.gold
        assert claim_scores(snapshot, gold) is claim_scores(snapshot, gold)


#: Tolerance edge cases.  price: six of the ten numeric claims are 100, so
#: the median |value| is 100 and tau(price) = 0.01 * 100 = 1.0 exactly;
#: depart is a TIME attribute, gate a STRING one.
_ONE_ULP_OVER = float(np.nextafter(1.0, 2.0))
_EDGE_CLAIMS = {
    ("s1", "o1", "price"): 100.0,
    ("s1", "o2", "price"): 100.0,
    ("s1", "o3", "price"): 100.0,
    ("s2", "o1", "price"): 100.0,
    ("s2", "o2", "price"): 100.0,
    ("s2", "o3", "price"): 100.0,
    ("s1", "at", "price"): 1.0,            # |1 - 0| == tau: correct
    ("s2", "at", "price"): _ONE_ULP_OVER,  # one ulp past tau: wrong
    ("s1", "nan", "price"): float("nan"),
    ("s2", "nan", "price"): 5.0,
    ("s1", "junk", "price"): "n/a",        # non-numeric under a numeric attr
    ("s2", "junk", "price"): "n/a",
    ("s1", "numstr", "price"): "12.5",     # convertible string
    ("s1", "dep", "depart"): 10.0,         # exactly TIME_TOLERANCE_MINUTES off
    ("s2", "dep", "depart"): float(np.nextafter(10.0, 11.0)),  # one ulp past
    ("s1", "g", "gate"): "B7",
    ("s2", "g", "gate"): "b7",
}
_EDGE_GOLD = {
    ("o1", "price"): 100.0,
    ("at", "price"): 0.0,
    ("nan", "price"): 5.0,
    ("junk", "price"): "n/a",
    ("numstr", "price"): 12.5,
    ("dep", "depart"): 0.0,
    ("g", "gate"): "B7",
}


class TestScoringEdgeCases:
    @pytest.fixture()
    def edge(self):
        return build_dataset(_EDGE_CLAIMS), build_gold(_EDGE_GOLD)

    def test_tolerance_is_exact(self, edge):
        ds, _gold = edge
        assert ds.tolerance("price") == 1.0
        assert TIME_TOLERANCE_MINUTES == 10.0

    def test_edges_match_scalar(self, edge):
        _assert_claims_match_scalar(*edge)

    def test_edge_verdicts(self, edge):
        ds, gold = edge
        scores = claim_scores(ds, gold)
        view = scores.view
        verdict = {
            (
                view.sources[view.claim_source[k]],
                view.items[view.claim_item[k]].object_id,
            ): bool(scores.correct[k])
            for k in range(view.n_claims)
        }
        assert verdict[("s1", "at")] and not verdict[("s2", "at")]
        assert not verdict[("s1", "nan")] and verdict[("s2", "nan")]
        assert verdict[("s1", "junk")] and verdict[("s1", "numstr")]
        assert verdict[("s1", "dep")] and not verdict[("s2", "dep")]
        assert verdict[("s1", "g")] and not verdict[("s2", "g")]

    def test_nan_gold_value_never_matches(self):
        ds = build_dataset({("s1", "o1", "price"): float("nan"),
                            ("s2", "o1", "price"): 1.0})
        gold = build_gold({("o1", "price"): float("nan")})
        _assert_claims_match_scalar(ds, gold)
        assert accuracy_of_source(ds, gold, "s1") == 0.0

    def test_selection_scoring_on_edges(self, edge):
        ds, gold = edge
        selected = {
            DataItem(obj, attr): value
            for (source, obj, attr), value in _EDGE_CLAIMS.items()
            if source == "s2"
        }
        items, output, correct = score_selection(ds, gold, selected)
        assert list(items) == list(gold.items)
        for i, item in enumerate(items):
            value = selected.get(item)
            assert output[i] == (value is not None)
            assert correct[i] == (
                value is not None and gold.is_correct(ds, item, value)
            ), item

    def test_unknown_source_rejected(self, edge):
        ds, gold = edge
        for score in (accuracy_of_source, coverage_of_source, recall_of_source):
            with pytest.raises(SchemaError):
                score(ds, gold, "ghost")


class TestGoldBeingFilledIn:
    """The cached masks follow every change to the gold values."""

    def test_added_and_replaced_values(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s1", "o2", "price"): 20.0,
            ("s2", "o2", "price"): 99.0,
        })
        gold = GoldStandard(domain="test")
        gold.values[DataItem("o1", "price")] = 10.0
        _assert_claims_match_scalar(ds, gold)
        assert accuracy_of_source(ds, gold, "s2") is None
        gold.values[DataItem("o2", "price")] = 99.0
        _assert_claims_match_scalar(ds, gold)
        assert accuracy_of_source(ds, gold, "s1") == 0.5
        gold.values[DataItem("o2", "price")] = 20.0  # same size, new value
        _assert_claims_match_scalar(ds, gold)
        assert accuracy_of_source(ds, gold, "s1") == 1.0
        del gold.values[DataItem("o1", "price")]
        _assert_claims_match_scalar(ds, gold)
        assert coverage_of_source(ds, gold, "s1") == 1.0

    def test_unfrozen_dataset_is_rescored(self):
        table = AttributeTable.from_specs([AttributeSpec("price")])
        ds = Dataset(domain="t", day="d", attributes=table)
        ds.add_source(SourceMeta("s1"))
        ds.add_claim("s1", DataItem("o1", "price"), Claim(10.0))
        gold = build_gold({("o1", "price"): 10.0, ("o2", "price"): 20.0})
        assert accuracy_of_source(ds, gold, "s1") == 1.0
        ds.add_claim("s1", DataItem("o2", "price"), Claim(50.0))
        assert accuracy_of_source(ds, gold, "s1") == 0.5

    def test_cache_entry_dies_with_the_snapshot(self):
        gold = build_gold({("o1", "price"): 10.0})
        ds = build_dataset({("s1", "o1", "price"): 10.0})
        claim_scores(ds, gold)
        assert len(gold.columns().claims) == 1
        del ds
        gc.collect()
        assert not gold.columns().claims

    def test_scored_gold_pickles_without_its_cache(self, stock_collection):
        snapshot = stock_collection.snapshot
        gold = GoldStandard("stock", dict(stock_collection.gold.values))
        expected = accuracy_of_source(snapshot, gold, "google_finance")
        clone = pickle.loads(pickle.dumps(gold))
        assert clone == gold and clone._columns is None
        assert accuracy_of_source(snapshot, clone, "google_finance") == expected
