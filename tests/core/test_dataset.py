"""Dataset construction, views, tolerance caching, and source filtering."""

import numpy as np
import pytest

from repro.core.attributes import AttributeSpec, AttributeTable, ValueKind
from repro.core.dataset import Dataset, DatasetSeries
from repro.core.records import Claim, DataItem, SourceMeta
from repro.errors import SchemaError

from tests.helpers import build_dataset


class TestDatasetBuild:
    def test_counts(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 10.0,
            ("s1", "o2", "price"): 20.0,
        })
        assert ds.num_sources == 2
        assert ds.num_objects == 2
        assert ds.num_items == 2
        assert ds.num_claims == 3

    def test_unknown_source_rejected(self):
        table = AttributeTable.from_specs([AttributeSpec("price")])
        ds = Dataset(domain="t", day="d", attributes=table)
        with pytest.raises(SchemaError):
            ds.add_claim("ghost", DataItem("o", "price"), Claim(1.0))

    def test_unknown_attribute_rejected(self):
        table = AttributeTable.from_specs([AttributeSpec("price")])
        ds = Dataset(domain="t", day="d", attributes=table)
        ds.add_source(SourceMeta("s"))
        with pytest.raises(SchemaError):
            ds.add_claim("s", DataItem("o", "volume"), Claim(1.0))

    def test_duplicate_source_rejected(self):
        table = AttributeTable.from_specs([AttributeSpec("price")])
        ds = Dataset(domain="t", day="d", attributes=table)
        ds.add_source(SourceMeta("s"))
        with pytest.raises(SchemaError):
            ds.add_source(SourceMeta("s"))

    def test_frozen_rejects_mutation(self):
        ds = build_dataset({("s1", "o1", "price"): 10.0})
        with pytest.raises(SchemaError):
            ds.add_source(SourceMeta("late"))


class TestDatasetViews:
    def test_claims_on_item(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 11.0,
        })
        claims = ds.claims_on(DataItem("o1", "price"))
        assert {s: c.value for s, c in claims.items()} == {"s1": 10.0, "s2": 11.0}

    def test_value_of_missing_is_none(self):
        ds = build_dataset({("s1", "o1", "price"): 10.0})
        assert ds.value_of("s1", DataItem("o2", "price")) is None

    def test_iter_claims_total(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 11.0,
        })
        assert len(list(ds.iter_claims())) == 2


class TestTolerance:
    def test_tolerance_uses_all_attribute_values(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 20.0,
            ("s1", "o2", "price"): 30.0,
        })
        assert ds.tolerance("price") == pytest.approx(0.01 * 20.0)

    def test_values_match_uses_tolerance(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 100.0,
            ("s2", "o1", "price"): 100.5,
        })
        # tolerance = 1% of median(100, 100.5)
        assert ds.values_match("price", 100.0, 100.5)
        assert not ds.values_match("price", 100.0, 103.0)

    def test_clustering_cached_when_frozen(self):
        ds = build_dataset({("s1", "o1", "price"): 10.0})
        item = DataItem("o1", "price")
        assert ds.clustering(item) is ds.clustering(item)


class TestDominantValues:
    """``dominant_values`` == ``clustering(item).dominant.representative``."""

    @staticmethod
    def _reference(dataset, items):
        dominant = {}
        for item in items:
            clustering = dataset.clustering(item)
            if clustering.clusters:
                dominant[item] = clustering.dominant.representative
        return dominant

    @pytest.mark.parametrize("domain", ["stock", "flight"])
    def test_matches_the_clusterings_on_every_day(
        self, domain, stock_collection, flight_collection
    ):
        collection = {"stock": stock_collection, "flight": flight_collection}
        collection = collection[domain]
        for snapshot in collection.series:
            items = list(collection.gold_for(snapshot.day).items)
            snapshot._clusterings = None
            got = snapshot.dominant_values(items)
            assert snapshot._clusterings is None  # nothing cached per item
            want = self._reference(snapshot, items)
            assert list(got) == list(want)
            assert [repr(v) for v in got.values()] == [
                repr(v) for v in want.values()
            ]

    def test_falls_back_to_the_clusterings_where_the_kernel_cannot_bucket(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 10.04,
            ("s3", "o1", "price"): 10.5,
            ("s1", "o2", "price"): -0.0,
            ("s2", "o2", "price"): 0.0,
            ("s1", "o3", "gate"): "B7",
            ("s1", "junk", "price"): "n/a",  # string under a bucketed attr
            ("s2", "junk", "price"): 3.0,
        })
        junk = DataItem("junk", "price")
        items = [DataItem("o1", "price"), DataItem("o2", "price"),
                 DataItem("o3", "gate"), DataItem("o9", "price")]
        assert ds._compiled_clusters() is None  # the kernel raised
        got = ds.dominant_values(items)
        want = self._reference(ds, items)
        assert list(got) == list(want) == items[:3]
        assert [repr(v) for v in got.values()] == [
            repr(v) for v in want.values()
        ]
        with pytest.raises(ValueError):
            ds.clustering(junk)
        with pytest.raises(ValueError):
            ds.dominant_values([junk])


class TestWithoutSources:
    def test_removes_claims_and_sources(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 11.0,
        })
        reduced = ds.without_sources(["s2"])
        assert reduced.num_sources == 1
        assert reduced.num_claims == 1
        # original untouched
        assert ds.num_claims == 2

    def test_restricted_to_sources(self):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 11.0,
            ("s3", "o1", "price"): 12.0,
        })
        kept = ds.restricted_to_sources(["s1", "s3"])
        assert sorted(kept.source_ids) == ["s1", "s3"]


class TestDatasetSeries:
    def test_series_rejects_other_domain(self):
        series = DatasetSeries(domain="stock")
        other = build_dataset({("s1", "o1", "price"): 1.0}, domain="flight")
        with pytest.raises(SchemaError):
            series.add(other)

    def test_snapshot_lookup(self):
        series = DatasetSeries(domain="test")
        ds = build_dataset({("s1", "o1", "price"): 1.0}, day="2011-07-07")
        series.add(ds)
        assert series.snapshot("2011-07-07") is ds
        with pytest.raises(SchemaError):
            series.snapshot("2011-07-08")

    def test_snapshot_error_lists_available_days(self):
        series = DatasetSeries(domain="test")
        for day in ("d1", "d2"):
            series.add(build_dataset({("s1", "o1", "price"): 1.0}, day=day))
        with pytest.raises(SchemaError, match="available days: d1, d2"):
            series.snapshot("d9")

    def test_snapshot_index_survives_later_adds(self):
        series = DatasetSeries(domain="test")
        first = build_dataset({("s1", "o1", "price"): 1.0}, day="d1")
        series.add(first)
        assert series.snapshot("d1") is first  # index built here
        second = build_dataset({("s1", "o1", "price"): 2.0}, day="d2")
        series.add(second)
        assert series.snapshot("d2") is second
        assert series.snapshot("d1") is first

    def test_duplicate_day_returns_first_match(self):
        series = DatasetSeries(domain="test")
        first = build_dataset({("s1", "o1", "price"): 1.0}, day="dup")
        second = build_dataset({("s1", "o1", "price"): 2.0}, day="dup")
        series.add(first)
        series.add(second)
        assert series.snapshot("dup") is first  # legacy linear-scan behaviour

    def test_empty_series_error(self):
        with pytest.raises(SchemaError, match="series is empty"):
            DatasetSeries(domain="test").snapshot("d1")


class TestBulkClaimInsert:
    """``add_claims`` behaves exactly like repeated ``add_claim`` calls."""

    @staticmethod
    def _empty():
        table = AttributeTable.from_specs([
            AttributeSpec("price"), AttributeSpec("gate", ValueKind.STRING),
        ])
        ds = Dataset(domain="t", day="d", attributes=table)
        for source_id in ("s1", "s2", "s3"):
            ds.add_source(SourceMeta(source_id))
        return ds

    #: Per source, in insertion order; items overlap across sources and s2
    #: provides an item nobody else does, between shared ones.
    _CLAIMS = {
        "s2": [("o2", "price", 20.0), ("o9", "gate", "A1"), ("o1", "price", 10.0)],
        "s1": [("o1", "price", 10.5), ("o1", "gate", "B2"), ("o2", "price", 21.0)],
        "s3": [("o3", "price", 30.0), ("o1", "price", 10.0)],
    }

    def _pair(self):
        one, bulk = self._empty(), self._empty()
        for source_id, rows in self._CLAIMS.items():
            claims = {DataItem(o, a): Claim(v) for o, a, v in rows}
            for item, claim in claims.items():
                one.add_claim(source_id, item, claim)
            bulk.add_claims(source_id, claims)
        return one, bulk

    def test_same_dict_order(self):
        one, bulk = self._pair()
        assert list(one._by_item) == list(bulk._by_item)
        for item, claims in one._by_item.items():
            assert list(claims.items()) == list(bulk._by_item[item].items())
        assert list(one._by_source) == list(bulk._by_source)
        for source_id, claims in one._by_source.items():
            assert list(claims.items()) == list(bulk._by_source[source_id].items())
        assert one.objects == bulk.objects

    def test_same_columnar_view(self):
        one, bulk = (ds.freeze() for ds in self._pair())
        a, b = one.columnar, bulk.columnar
        for name in ("items", "sources", "attr_names", "values"):
            assert getattr(a, name) == getattr(b, name), name
        for name in (
            "item_attr", "item_start", "claim_item", "claim_source",
            "claim_value", "claim_numeric", "claim_granularity",
            "value_numeric", "value_str_rank",
        ):
            assert np.array_equal(
                getattr(a, name), getattr(b, name), equal_nan=True
            ), name

    @staticmethod
    def _errors(source_id, item, frozen=False):
        raised = []
        for insert in (
            lambda ds: ds.add_claim(source_id, item, Claim(1.0)),
            lambda ds: ds.add_claims(source_id, {item: Claim(1.0)}),
        ):
            ds = TestBulkClaimInsert._empty()
            if frozen:
                ds.freeze()
            with pytest.raises(SchemaError) as info:
                insert(ds)
            raised.append(str(info.value))
        return raised

    def test_frozen_rejected_alike(self):
        single, bulk = self._errors("s1", DataItem("o", "price"), frozen=True)
        assert single == bulk == "dataset is frozen"

    def test_unknown_source_rejected_alike(self):
        single, bulk = self._errors("ghost", DataItem("o", "price"))
        assert single == bulk

    def test_unknown_attribute_rejected_alike(self):
        single, bulk = self._errors("s1", DataItem("o", "volume"))
        assert single == bulk

    def test_invalid_batch_inserts_nothing(self):
        ds = self._empty()
        with pytest.raises(SchemaError):
            ds.add_claims("s1", {
                DataItem("o1", "price"): Claim(1.0),
                DataItem("o1", "volume"): Claim(2.0),
            })
        assert ds.num_claims == 0 and not ds.objects
