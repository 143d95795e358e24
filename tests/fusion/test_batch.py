"""The restriction sweep against one-shot solves of each restriction."""

import numpy as np
import pytest

from repro.evaluation.metrics import evaluate
from repro.evaluation.ordering import sources_by_recall
from repro.fusion.base import FusionProblem
from repro.fusion.batch import GoldScorer, RestrictionSweep, solve_restrictions
from repro.fusion.registry import METHOD_NAMES, make_method
from repro.fusion.spec import MethodSpec

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
        spec = MethodSpec.of(make_method(name))
        packaged = sweep.solve(make_method(name))
        raw = sweep.solve(make_method(name), package=False)
        for subset, done, bare in zip(prefixes, packaged, raw):
            reference = make_method(name).run(problem.restrict_sources(subset))
            assert done.sources == bare.sources == list(reference.trust)
            assert not done.empty and not bare.empty
            assert bare.result is None
            # The raw arrays package to exactly the one-shot result.
            unpacked = spec.package(
                bare.matcher, {"trust": bare.trust_array},
                bare.selected_local, bare.rounds, bare.converged, 0.0,
            )
            for result in (done.result, unpacked):
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
        packaged = sweep.solve(make_method(name))
        raw = sweep.solve(make_method(name), package=False)
        for done, bare in zip(packaged, raw):
            expected = evaluate(done.matcher, gold, done.result)
            assert scorer.score(bare.matcher, bare.selected_local) == (
                expected.precision, expected.recall
            ), len(done.sources)


class TestPrefixDeltaCompile:
    """Nested prefixes delta-compile instead of re-bucketing from scratch."""

    @pytest.fixture(scope="class")
    def sparse_base(self):
        # Two broad sources plus four sparse ones: each prefix step dirties
        # only a few items, so the splice path pays and must engage.
        claims = {}
        for o in range(30):
            claims[("s1", f"o{o}", "price")] = 10.0 + o
            claims[("s2", f"o{o}", "price")] = 10.0 + o
            claims[("s1", f"o{o}", "gate")] = f"G{o % 4}"
        for j, source in enumerate(("s3", "s4", "s5", "s6")):
            for o in range(3 * j, 3 * j + 3):
                claims[(source, f"o{o}", "gate")] = f"G{(o + 1) % 4}"
        return FusionProblem(build_dataset(claims))

    @pytest.fixture(scope="class")
    def chain(self):
        order = ["s1", "s2", "s3", "s4", "s5", "s6"]
        return [order[:size] for size in range(2, 7)]

    def test_delta_compiled_prefixes_are_bitwise_restrictions(
        self, sparse_base, chain
    ):
        sweep = RestrictionSweep(sparse_base, chain)
        assert sweep.delta_compiles >= len(chain) - 2
        for subset, sub in zip(chain, sweep.subs):
            reference = sparse_base.restrict_sources(subset)
            for name in PROBLEM_ARRAYS:
                assert np.array_equal(
                    getattr(sub, name), getattr(reference, name)
                ), (len(subset), name)
            assert sub.sources == reference.sources

    def test_delta_compiled_prefixes_solve_like_per_job(self, sparse_base, chain):
        outcomes = solve_restrictions(sparse_base, make_method("AccuSim"), chain)
        one_shot = [
            make_method("AccuSim").run(sparse_base.restrict_sources(subset))
            for subset in chain
        ]
        for outcome, reference in zip(outcomes, one_shot):
            assert outcome.result.selected == reference.selected
            assert outcome.result.rounds == reference.rounds
            for source, trust in reference.trust.items():
                assert outcome.result.trust[source] == pytest.approx(
                    trust, abs=1e-12
                )

    def test_generated_prefixes_stay_exact_whatever_path_runs(
        self, problem, prefixes
    ):
        # Broad-coverage generated sources usually dirty too much for the
        # splice to pay; whichever path each step takes, the compiled
        # problems must equal fresh restrictions bit for bit.
        sweep = RestrictionSweep(problem, prefixes)
        for subset, sub in zip(prefixes, sweep.subs):
            reference = problem.restrict_sources(subset)
            for name in ("claim_cluster", "_cluster_value_code", "_attr_tol"):
                assert np.array_equal(getattr(sub, name), getattr(reference, name))

    def test_tolerance_shift_dirties_whole_attribute(self, sparse_base):
        # s7 skews the price median; every price item must recompile, and
        # the result still matches the fresh restriction exactly.
        claims = {}
        for o in range(20):
            claims[("s1", f"o{o}", "price")] = 10.0 + o
            claims[("s2", f"o{o}", "price")] = 10.0 + o
        claims[("s7", "o0", "price")] = 500.0
        claims[("s8", "o0", "price")] = 10.0  # never joins: no full cover
        base = FusionProblem(build_dataset(claims))
        chain = [["s1", "s2"], ["s1", "s2", "s7"]]
        sweep = RestrictionSweep(base, chain, delta_threshold=1.1)
        assert sweep.delta_compiles == 1
        reference = base.restrict_sources(chain[1])
        for name in PROBLEM_ARRAYS:
            assert np.array_equal(
                getattr(sweep.subs[1], name), getattr(reference, name)
            ), name

    def test_non_nested_subsets_fall_back(self, sparse_base):
        sweep = RestrictionSweep(
            sparse_base, [["s1", "s3"], ["s1", "s4"], ["s2", "s5"]]
        )
        assert sweep.delta_compiles == 0
        for subset, sub in zip(sweep.subsets, sweep.subs):
            reference = sparse_base.restrict_sources(subset)
            assert np.array_equal(sub.claim_cluster, reference.claim_cluster)


class TestEdgeCases:
    def test_empty_restriction_yields_empty_outcome(self):
        from repro.fusion.base import FusionProblem

        dataset = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 11.0,
        })
        base = FusionProblem(dataset)
        outcomes = solve_restrictions(
            base, make_method("Vote"), [["s1"], ["nope"], ["s2"]]
        )
        assert [o.empty for o in outcomes] == [False, True, False]
        assert outcomes[0].result.selected
        assert outcomes[1].result is None

    def test_matcher_tolerances_are_per_restriction(self, problem, prefixes):
        outcomes = solve_restrictions(problem, make_method("Vote"), prefixes)
        for outcome, subset in zip(outcomes, prefixes):
            sub = problem.restrict_sources(subset)
            assert np.allclose(outcome.matcher._attr_tol, sub._attr_tol)
