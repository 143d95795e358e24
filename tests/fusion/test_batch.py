"""The restriction sweep against one-shot solves of each restriction."""

import numpy as np
import pytest

from repro.evaluation.metrics import evaluate
from repro.evaluation.ordering import sources_by_recall
from repro.fusion.base import FusionProblem
from repro.fusion.batch import GoldScorer, RestrictionSweep
from repro.fusion.registry import METHOD_NAMES, make_method

from tests.helpers import PROBLEM_ARRAYS, build_dataset


def _prefixes(collection):
    order = sources_by_recall(collection.snapshot, collection.gold)
    sizes = sorted(set(list(range(1, 8)) + [12, 20, len(order)]))
    return [order[:size] for size in sizes]


@pytest.fixture(scope="module")
def stock():
    from repro.experiments.context import get_context

    return get_context("tiny").collection("stock")


@pytest.fixture(scope="module")
def problem(stock):
    from repro.experiments.context import get_context

    return get_context("tiny").problem("stock")


@pytest.fixture(scope="module")
def prefixes(stock):
    return _prefixes(stock)


@pytest.fixture(scope="module")
def sweep(problem, prefixes):
    return RestrictionSweep(problem, prefixes)


class TestSweepEqualsOneShot:
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_every_method_is_bit_identical(self, problem, prefixes, sweep, name):
        method = make_method(name)
        raw = sweep.solve(method)
        for subset, bare in zip(prefixes, raw):
            reference = make_method(name).run(problem.restrict_sources(subset))
            assert bare.sources == list(reference.trust)
            assert not bare.empty
            # The raw arrays package to exactly the one-shot result.
            result = method._package(
                bare.matcher, {"trust": bare.trust_array},
                bare.selected_local, bare.rounds, bare.converged, 0.0,
            )
            assert result.selected == reference.selected, len(subset)
            assert result.rounds == reference.rounds, len(subset)
            assert result.converged == reference.converged, len(subset)
            assert result.trust == reference.trust, len(subset)
            assert result.attr_trust == reference.attr_trust, len(subset)


class TestGoldScorer:
    @pytest.fixture(scope="class", params=["stock", "flight"])
    def domain(self, request):
        from repro.experiments.context import get_context

        context = get_context("tiny")
        collection = context.collection(request.param)
        base = context.problem(request.param)
        return (
            collection.gold,
            GoldScorer(base, collection.gold),
            RestrictionSweep(base, _prefixes(collection)),
        )

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_score_equals_evaluate(self, domain, name):
        gold, scorer, sweep = domain
        for bare in sweep.solve(make_method(name)):
            reference = make_method(name).run(bare.matcher)
            expected = evaluate(bare.matcher, gold, reference)
            assert scorer.score(bare.matcher, bare.selected_local) == (
                expected.precision, expected.recall
            ), len(bare.sources)


def _sparse_base():
    # Two broad sources plus four sparse ones: each prefix step touches
    # only a few items.
    claims = {}
    for o in range(30):
        claims[("s1", f"o{o}", "price")] = 10.0 + o
        claims[("s2", f"o{o}", "price")] = 10.0 + o
        claims[("s1", f"o{o}", "gate")] = f"G{o % 4}"
    for j, source in enumerate(("s3", "s4", "s5", "s6")):
        for o in range(3 * j, 3 * j + 3):
            claims[(source, f"o{o}", "gate")] = f"G{(o + 1) % 4}"
    return FusionProblem(build_dataset(claims))


SPARSE_CHAIN = [["s1", "s2", "s3", "s4", "s5", "s6"][:size] for size in range(2, 7)]


def _tolerance_shift_case():
    # s7 skews the price median, so the second prefix re-grids every
    # price item; s8 never joins, so no subset is a full cover.
    claims = {}
    for o in range(20):
        claims[("s1", f"o{o}", "price")] = 10.0 + o
        claims[("s2", f"o{o}", "price")] = 10.0 + o
    claims[("s7", "o0", "price")] = 500.0
    claims[("s8", "o0", "price")] = 10.0
    base = FusionProblem(build_dataset(claims))
    return base, [["s1", "s2"], ["s1", "s2", "s7"]]


def _sweep_case(name):
    from repro.experiments.context import get_context

    if name in ("stock", "flight"):
        context = get_context("tiny")
        return context.problem(name), _prefixes(context.collection(name))
    if name == "sparse-chain":
        return _sparse_base(), SPARSE_CHAIN
    if name == "tolerance-shift":
        return _tolerance_shift_case()
    assert name == "non-nested"
    return _sparse_base(), [["s1", "s3"], ["s1", "s4"], ["s2", "s5"]]


class TestSweepCompilesRestrictions:
    """Every sweep restriction is the problem ``restrict_sources`` compiles."""

    @pytest.mark.parametrize(
        "case",
        ["stock", "flight", "sparse-chain", "tolerance-shift", "non-nested"],
    )
    def test_restrictions_are_bitwise_restrict_sources(self, case):
        base, subsets = _sweep_case(case)
        sweep = RestrictionSweep(base, subsets)
        assert len(sweep.subs) == len(subsets)
        for subset, sub in zip(subsets, sweep.subs):
            reference = base.restrict_sources(subset)
            for name in PROBLEM_ARRAYS:
                assert np.array_equal(
                    getattr(sub, name), getattr(reference, name)
                ), (len(subset), name)
            assert sub.sources == reference.sources

    def test_sparse_chain_solves_like_per_job(self):
        base = _sparse_base()
        method = make_method("AccuSim")
        outcomes = RestrictionSweep(base, SPARSE_CHAIN).solve(method)
        for outcome, subset in zip(outcomes, SPARSE_CHAIN):
            reference = make_method("AccuSim").run(base.restrict_sources(subset))
            result = method._package(
                outcome.matcher, {"trust": outcome.trust_array},
                outcome.selected_local, outcome.rounds, outcome.converged, 0.0,
            )
            assert result.selected == reference.selected
            assert result.rounds == reference.rounds
            assert result.trust == reference.trust


class TestEdgeCases:
    def test_empty_restriction_yields_empty_outcome(self):
        dataset = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 11.0,
        })
        base = FusionProblem(dataset)
        outcomes = RestrictionSweep(base, [["s1"], ["nope"], ["s2"]]).solve(
            make_method("Vote")
        )
        assert [o.empty for o in outcomes] == [False, True, False]
        assert len(outcomes[0].selected_local) == 1
        assert outcomes[1].matcher is None
        assert outcomes[1].selected_local is None
        assert outcomes[1].sources == []

    def test_matcher_tolerances_are_per_restriction(self, problem, prefixes):
        outcomes = RestrictionSweep(problem, prefixes).solve(make_method("Vote"))
        for outcome, subset in zip(outcomes, prefixes):
            sub = problem.restrict_sources(subset)
            assert np.array_equal(outcome.matcher._attr_tol, sub._attr_tol)
