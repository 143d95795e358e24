"""Trust sampling and the Table 7 diagnostics."""

import pytest

from repro.fusion.base import FusionResult
from repro.fusion.trust import (
    sample_trust,
    sampled_accuracy,
    sampled_avglog,
    sampled_cosine,
    sampled_vote_mass,
    trust_diagnostics,
)

from tests.helpers import build_dataset, build_gold


@pytest.fixture()
def scenario():
    ds = build_dataset({
        ("good", "o1", "price"): 10.0,
        ("good", "o2", "price"): 20.0,
        ("bad", "o1", "price"): 99.0,
        ("bad", "o2", "price"): 20.0,
    })
    gold = build_gold({("o1", "price"): 10.0, ("o2", "price"): 20.0})
    return ds, gold


class TestSampledAccuracy:
    def test_values(self, scenario):
        ds, gold = scenario
        sample = sampled_accuracy(ds, gold)
        assert sample["good"] == pytest.approx(1.0)
        assert sample["bad"] == pytest.approx(0.5)

    def test_sources_without_gold_items_omitted(self):
        ds = build_dataset({("lonely", "oX", "price"): 1.0})
        gold = build_gold({("o1", "price"): 10.0})
        assert sampled_accuracy(ds, gold) == {}


class TestMethodSamplers:
    def test_vote_has_no_sample(self, scenario):
        ds, gold = scenario
        assert sample_trust("Vote", ds, gold) is None

    def test_every_iterative_method_has_sample(self, scenario):
        ds, gold = scenario
        from repro.fusion.registry import ITERATIVE_METHOD_NAMES
        for name in ITERATIVE_METHOD_NAMES:
            sample = sample_trust(name, ds, gold)
            assert sample, name

    def test_vote_mass_normalized_to_max_one(self, scenario):
        ds, gold = scenario
        sample = sampled_vote_mass(ds, gold)
        assert max(sample.values()) == pytest.approx(1.0)
        assert sample["good"] > sample["bad"]

    def test_avglog_orders_by_accuracy(self, scenario):
        ds, gold = scenario
        sample = sampled_avglog(ds, gold)
        assert sample["good"] > sample["bad"]

    def test_cosine_in_range(self, scenario):
        ds, gold = scenario
        sample = sampled_cosine(ds, gold)
        assert all(-1.0 <= v <= 1.0 for v in sample.values())
        assert sample["good"] > sample["bad"]


class TestDiagnostics:
    def test_perfect_match_zero_deviation(self):
        result = FusionResult(
            method="x", selected={}, trust={"a": 0.9, "b": 0.5}
        )
        diag = trust_diagnostics(result, {"a": 0.9, "b": 0.5})
        assert diag.deviation == pytest.approx(0.0)
        assert diag.difference == pytest.approx(0.0)

    def test_systematic_overestimate_positive_difference(self):
        result = FusionResult(
            method="x", selected={}, trust={"a": 0.9, "b": 0.9}
        )
        diag = trust_diagnostics(result, {"a": 0.6, "b": 0.6})
        assert diag.deviation == pytest.approx(0.3)
        assert diag.difference == pytest.approx(0.3)

    def test_missing_sample_sources_ignored(self):
        result = FusionResult(method="x", selected={}, trust={"a": 0.9})
        diag = trust_diagnostics(result, {"zzz": 0.1})
        assert diag.deviation == 0.0


class TestSamplersEqualScalarWalk:
    """The columnar samplers equal the per-claim gold walk they replaced."""

    @staticmethod
    def _scalar(dataset, gold):
        accuracy, counts, cosine = {}, {}, {}
        for source_id in dataset.source_ids:
            total = correct = positions = 0
            dot = 0.0
            for item, claim in dataset.claims_by(source_id).items():
                if item not in gold:
                    continue
                k = dataset.clustering(item).num_values
                total += 1
                positions += k
                if gold.is_correct(dataset, item, claim.value):
                    correct += 1
                    dot += k
                else:
                    dot += k - 4
            counts[source_id] = total
            if total:
                accuracy[source_id] = correct / total
                cosine[source_id] = dot / positions
        mass = {s: a * counts[s] for s, a in accuracy.items()}
        peak = max(mass.values())
        return accuracy, {s: v / peak for s, v in mass.items()}, cosine

    @pytest.mark.parametrize("domain", ["stock", "flight"])
    def test_every_tiny_snapshot(self, domain, stock_collection, flight_collection):
        collection = {"stock": stock_collection, "flight": flight_collection}[domain]
        for snapshot in collection.series:
            gold = collection.gold_for(snapshot.day)
            accuracy, mass, cosine = self._scalar(snapshot, gold)
            assert sampled_accuracy(snapshot, gold) == accuracy
            assert list(sampled_accuracy(snapshot, gold)) == list(accuracy)
            assert sampled_vote_mass(snapshot, gold) == mass
            assert sampled_cosine(snapshot, gold) == cosine
