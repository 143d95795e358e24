"""Precision/recall scoring and dominance-bucketed precision."""

import pytest

from repro.core.records import DataItem
from repro.evaluation.metrics import (
    error_items,
    evaluate,
    precision_by_dominance,
)
from repro.fusion.base import FusionProblem, FusionResult
from repro.fusion.registry import METHOD_NAMES, make_method
from repro.profiling.dominance import DOMINANCE_BUCKETS, dominance_bucket

from tests.helpers import build_dataset, build_gold


@pytest.fixture()
def scenario():
    ds = build_dataset({
        ("s1", "o1", "price"): 10.0,
        ("s2", "o1", "price"): 10.0,
        ("s1", "o2", "price"): 20.0,
        ("s1", "o3", "price"): 30.0,
    })
    gold = build_gold({
        ("o1", "price"): 10.0,
        ("o2", "price"): 20.0,
        ("o3", "price"): 99.0,  # result will be wrong here
        ("o4", "price"): 40.0,  # not output at all
    })
    result = FusionResult(
        method="t",
        selected={
            DataItem("o1", "price"): 10.0,
            DataItem("o2", "price"): 20.0,
            DataItem("o3", "price"): 30.0,
        },
        trust={},
    )
    return ds, gold, result


class TestEvaluate:
    def test_precision_over_output(self, scenario):
        ds, gold, result = scenario
        score = evaluate(ds, gold, result)
        assert score.precision == pytest.approx(2 / 3)

    def test_recall_over_gold(self, scenario):
        ds, gold, result = scenario
        score = evaluate(ds, gold, result)
        assert score.recall == pytest.approx(2 / 4)

    def test_errors_listed(self, scenario):
        ds, gold, result = scenario
        score = evaluate(ds, gold, result)
        assert score.errors == [DataItem("o3", "price")]

    def test_tolerance_aware_match(self, scenario):
        ds, gold, _ = scenario
        near = FusionResult(
            method="t", selected={DataItem("o1", "price"): 10.05}, trust={}
        )
        assert evaluate(ds, gold, near).precision == 1.0

    def test_recall_equals_precision_when_all_output(self):
        ds = build_dataset({("s1", "o1", "price"): 10.0})
        gold = build_gold({("o1", "price"): 10.0})
        result = FusionResult(
            method="t", selected={DataItem("o1", "price"): 10.0}, trust={}
        )
        score = evaluate(ds, gold, result)
        assert score.precision == score.recall == 1.0


class TestErrorItems:
    def test_missing_items_count_as_errors(self, scenario):
        ds, gold, result = scenario
        wrong = error_items(ds, gold, result)
        assert DataItem("o3", "price") in wrong
        assert DataItem("o4", "price") in wrong
        assert DataItem("o1", "price") not in wrong


class TestPrecisionByDominance:
    def test_buckets(self, scenario):
        ds, gold, result = scenario
        curve = precision_by_dominance(ds, gold, result)
        assert set(curve) == {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
        # items o1..o3 all have dominance 1.0 -> bucket 0.9
        assert curve[0.9] == pytest.approx(2 / 3)
        assert curve[0.1] is None


# ---------------------------------------------------------------------------
# The columnar scoring equals the scalar gold walk, on every method's output.
# ---------------------------------------------------------------------------

def _scalar_evaluate(matcher, gold, result):
    """Reference: (precision, recall, num_output, num_correct, errors)."""
    num_output = num_correct = 0
    errors = []
    for item in gold.items:
        value = result.selected.get(item)
        if value is None:
            continue
        num_output += 1
        if gold.is_correct(matcher, item, value):
            num_correct += 1
        else:
            errors.append(item)
    return (
        num_correct / num_output if num_output else 0.0,
        num_correct / len(gold) if len(gold) else 0.0,
        num_output,
        num_correct,
        errors,
    )


def _scalar_error_items(matcher, gold, result):
    return {
        item for item in gold.items
        if result.selected.get(item) is None
        or not gold.is_correct(matcher, item, result.selected[item])
    }


def _scalar_precision_by_dominance(dataset, gold, result):
    correct = {b: 0 for b in DOMINANCE_BUCKETS}
    total = {b: 0 for b in DOMINANCE_BUCKETS}
    for item in gold.items:
        value = result.selected.get(item)
        if value is None:
            continue
        clustering = dataset.clustering(item)
        if not clustering.clusters:
            continue
        bucket = dominance_bucket(clustering.dominance_factor)
        total[bucket] += 1
        correct[bucket] += gold.is_correct(dataset, item, value)
    return {b: (correct[b] / total[b] if total[b] else None) for b in DOMINANCE_BUCKETS}


def _assert_scores_match(matcher, gold, result):
    score = evaluate(matcher, gold, result)
    precision, recall, num_output, num_correct, errors = _scalar_evaluate(
        matcher, gold, result
    )
    assert (score.precision, score.recall) == (precision, recall)
    assert (score.num_output, score.num_correct) == (num_output, num_correct)
    assert score.num_gold == len(gold)
    assert score.errors == errors
    assert error_items(matcher, gold, result) == _scalar_error_items(
        matcher, gold, result
    )


class TestScalarEquivalence:
    @pytest.fixture(scope="class", params=["stock", "flight"])
    def domain(self, request, stock_collection, flight_collection):
        collection = {"stock": stock_collection, "flight": flight_collection}[
            request.param
        ]
        problem = FusionProblem(collection.snapshot)
        half = problem.sources[: len(problem.sources) // 2]
        return collection, problem, problem.restrict_sources(half)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_dataset_matcher(self, domain, name):
        collection, problem, _sub = domain
        snapshot, gold = collection.snapshot, collection.gold
        result = make_method(name).run(problem)
        _assert_scores_match(snapshot, gold, result)
        assert precision_by_dominance(snapshot, gold, result) == (
            _scalar_precision_by_dominance(snapshot, gold, result)
        )

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_restricted_problem_matcher(self, domain, name):
        collection, _problem, sub = domain
        result = make_method(name).run(sub)
        _assert_scores_match(sub, collection.gold, result)

    def test_restricted_tolerances_differ(self, stock_collection):
        # Stock's numeric attributes: the restricted matcher scores with its
        # own Equation-(3) tolerances, not the snapshot's.
        problem = FusionProblem(stock_collection.snapshot)
        sub = problem.restrict_sources(problem.sources[: len(problem.sources) // 2])
        assert any(
            problem.tolerance(a) != sub.tolerance(a) for a in problem.attributes
        )
