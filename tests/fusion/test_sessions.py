"""One solver API: a method solves, a StreamRunner streams.

``FusionMethod.run`` is the one cold solve; :class:`StreamRunner` carries
each method's trust across days and warm-starts the same fixed point.
"""

import gc
import weakref

import pytest

from repro.core.delta import ClaimDelta, SeriesCompiler
from repro.core.records import Claim, DataItem
from repro.fusion.base import FusionProblem
from repro.fusion.registry import METHOD_NAMES, make_method
from repro.streaming import StreamRunner

from tests.helpers import build_dataset


class TestMethodParameters:
    def test_method_exposes_parameters(self):
        method = make_method("AccuSimAttr", max_rounds=7)
        assert method.name == "AccuSimAttr"
        assert method.per_attribute_trust
        assert method.max_rounds == 7
        assert not method.uses_copy_detection

    def test_accucopy_requests_copy_tracking(self):
        assert make_method("AccuCopy").uses_copy_detection

    def test_methods_are_stateless_across_runs(self, flight_problem):
        """One instance run twice gives identical results (no hidden state)."""
        method = make_method("AccuCopy")
        first = method.run(flight_problem)
        second = method.run(flight_problem)
        assert first.selected == second.selected
        assert first.trust == second.trust
        assert first.rounds == second.rounds


class TestRunEqualsColdStreamDay:
    @pytest.mark.parametrize("name", ["Vote", "AccuSim", "3-Estimates"])
    def test_one_shot_run_is_a_cold_stream_day(
        self, flight_snapshot, flight_problem, name
    ):
        run_result = make_method(name).run(flight_problem)
        step = StreamRunner([name], warm_start=False).push(flight_snapshot)
        day_result = step.results[name]
        assert run_result.selected == day_result.selected
        assert run_result.trust == day_result.trust
        assert run_result.rounds == day_result.rounds


class TestColdStreamsMatchFromScratch:
    def test_every_method_every_day(self, flight_collection):
        """The acceptance bar: cold-streamed days == cold compiles,
        for all registered methods, on a generated DatasetSeries."""
        runner = StreamRunner(list(METHOD_NAMES), warm_start=False)
        for snapshot in flight_collection.series:
            step = runner.push(snapshot)
            cold_problem = FusionProblem(snapshot)
            for name in METHOD_NAMES:
                streamed = step.results[name]
                cold = make_method(name).run(cold_problem)
                assert streamed.selected == cold.selected, (snapshot.day, name)
                assert streamed.rounds == cold.rounds
                for source_id, trust in cold.trust.items():
                    assert streamed.trust[source_id] == pytest.approx(
                        trust, abs=1e-12
                    )


class TestWarmStreams:
    def test_warm_start_carries_trust(self):
        base = build_dataset({
            ("good", "o1", "price"): 10.0,
            ("good", "o2", "price"): 20.0,
            ("bad", "o1", "price"): 99.0,
            ("bad", "o2", "price"): 77.0,
            ("other", "o1", "price"): 10.0,
            ("other", "o2", "price"): 20.0,
        })
        runner = StreamRunner(["AccuPr"], warm_start=True)
        first = runner.push(base).results["AccuPr"]
        assert not first.extras["warm_started"]
        delta = ClaimDelta(
            day="d1",
            added=(("bad", DataItem("o1", "price"), Claim(value=98.0)),),
        )
        second = runner.push_delta(delta).results["AccuPr"]
        assert second.extras["warm_started"]
        assert second.extras["day"] == "d1"
        # The unreliable source stayed unreliable across the stream.
        assert second.trust["bad"] < second.trust["good"]
        assert runner.days == [base.day, "d1"]

    def test_warm_start_converges_in_fewer_rounds(self, flight_collection):
        from repro.datagen import perturbed_claim_stream

        base = flight_collection.series[0]
        stream = perturbed_claim_stream(base, n_days=2, churn=0.005, seed=5)
        warm = StreamRunner(["AccuPr"], warm_start=True)
        warm.push(base)
        cold_rounds = make_method("AccuPr").run(
            FusionProblem(stream.snapshots[-1])
        ).rounds
        for delta in stream.deltas:
            result = warm.push_delta(delta).results["AccuPr"]
        assert result.rounds <= cold_rounds

    def test_new_source_agreeing_with_the_truth_gets_positive_trust(self):
        from repro.core.records import SourceMeta

        base = build_dataset({
            ("good", "o1", "price"): 10.0,
            ("bad", "o1", "price"): 99.0,
        })
        runner = StreamRunner(["AccuPr"], warm_start=True)
        runner.push(base)
        delta = ClaimDelta(
            day="d1",
            added=(("fresh", DataItem("o1", "price"), Claim(value=10.0)),),
            new_sources=(SourceMeta("fresh"),),
        )
        result = runner.push_delta(delta).results["AccuPr"]
        assert result.trust["fresh"] > 0.0

    def test_new_source_mid_stream_gets_initial_trust(self):
        from repro.core.records import SourceMeta

        base = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 10.0,
        })
        runner = StreamRunner(["AccuPr"], warm_start=True)
        runner.push(base)
        delta = ClaimDelta(
            day="d1",
            added=(("late", DataItem("o1", "price"), Claim(value=10.0)),),
            new_sources=(SourceMeta("late"),),
        )
        result = runner.push_delta(delta).results["AccuPr"]
        assert "late" in result.trust

    def test_per_attribute_trust_rebases(self, flight_collection):
        runner = StreamRunner(["AccuSimAttr"], warm_start=True)
        for snapshot in flight_collection.series:
            result = runner.push(snapshot).results["AccuSimAttr"]
        assert result.extras["warm_started"]
        assert result.attr_trust is not None

    def test_accucopy_streams_warm(self, flight_collection):
        runner = StreamRunner(["AccuCopy"], warm_start=True)
        for snapshot in flight_collection.series:
            result = runner.push(snapshot).results["AccuCopy"]
        assert result.converged or result.rounds > 0


class TestStreamRunner:
    def test_shared_compiler_and_results(self, flight_collection):
        runner = StreamRunner(["Vote", "AccuPr"], warm_start=True)
        for snapshot in flight_collection.series:
            step = runner.push(snapshot)
            assert set(step.results) == {"Vote", "AccuPr"}
            assert step.total_seconds >= step.compile_seconds
        assert runner.days == flight_collection.series.days

    def test_dropped_step_results_are_collectable(self, flight_snapshot):
        """The runner keeps no step: once the caller drops a day's step,
        its per-item results can be freed (a follow-mode stream would
        otherwise grow without bound)."""
        runner = StreamRunner(["Vote"])
        step = runner.push(flight_snapshot)
        result = weakref.ref(step.results["Vote"])
        del step
        gc.collect()
        assert result() is None
        assert runner.days == [flight_snapshot.day]

    def test_push_delta(self):
        base = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 11.0,
        })
        runner = StreamRunner(["Vote"])
        runner.push(base)
        step = runner.push_delta(
            ClaimDelta(
                day="d1",
                added=(("s2", DataItem("o1", "price"), Claim(value=10.0)),),
            )
        )
        selected = step.results["Vote"].selected
        assert selected[DataItem("o1", "price")] == 10.0

    def test_step_stats_count_the_day(self, stock_snapshot):
        step = StreamRunner(["Vote"]).push(stock_snapshot)
        assert step.stats.n_active_claims == stock_snapshot.num_claims
        assert step.stats.n_added_claims == stock_snapshot.num_claims
        assert step.results["Vote"].extras["compile"] is step.stats

    def test_methods_warm_start_from_the_second_day(self, stock_collection):
        runner = StreamRunner(["AccuPr"])
        first = runner.push(stock_collection.series.snapshots[0])
        second = runner.push(stock_collection.series.snapshots[1])
        assert not first.results["AccuPr"].extras["warm_started"]
        assert second.results["AccuPr"].extras["warm_started"]

    def test_cold_stream_through_compaction_matches_snapshot_solves(
        self, stock_snapshot, monkeypatch
    ):
        """Every day of a compacting delta stream fuses like its snapshot."""
        from repro.core import delta as delta_mod
        from repro.datagen import perturbed_claim_stream

        monkeypatch.setattr(delta_mod, "DEFAULT_MAX_INACTIVE_RATIO", 0.05)
        methods = ["Vote", "AccuSim"]
        stream = perturbed_claim_stream(stock_snapshot, 4, churn=0.3, seed=9)
        runner = StreamRunner(methods, warm_start=False)
        runner.push(stream.base)
        compacted = False
        for delta, snapshot in zip(stream.deltas, stream.snapshots):
            step = runner.push_delta(delta)
            compacted |= step.stats.compacted
            problem = FusionProblem(snapshot)
            for name in methods:
                reference = make_method(name).run(problem)
                result = step.results[name]
                assert result.selected == reference.selected, (step.day, name)
                for source_id, trust in reference.trust.items():
                    assert result.trust[source_id] == pytest.approx(
                        trust, abs=1e-12
                    ), (step.day, name, source_id)
        assert compacted  # the low ratio must actually trigger compaction

    def test_delta_before_ingest_raises(self):
        from repro.errors import FusionError

        with pytest.raises(FusionError, match="prior ingest"):
            StreamRunner(["Vote"]).push_delta(ClaimDelta(day="d1"))

    def test_sharding_is_not_an_option(self):
        from repro.serving import TruthService

        with pytest.raises(TypeError):
            StreamRunner(["Vote"], shards=2)
        with pytest.raises(TypeError):
            StreamRunner(["Vote"], compiler=SeriesCompiler())
        with pytest.raises(TypeError):
            TruthService(["Vote"], shards=2)


def _stream_inputs(stock_collection):
    """A snapshot day, two explicit delta days, then a snapshot day."""
    from repro.datagen import perturbed_claim_stream

    base = stock_collection.series.snapshots[0]
    stream = perturbed_claim_stream(base, n_days=3, churn=0.03, seed=5)
    return stream, stream.snapshots[-1]


def _feed(runner, stream, last):
    steps = [runner.push(stream.base)]
    steps += [runner.push_delta(delta) for delta in stream.deltas[:-1]]
    steps.append(runner.push(last))
    return steps


def _assert_same_results(ours, theirs, name):
    for a, b in zip(ours, theirs):
        assert a.day == b.day
        assert a.results[name].selected == b.results[name].selected, a.day
        assert a.results[name].rounds == b.results[name].rounds, a.day
        # Bit-identical: sharing a day's compile with other methods (and
        # with their copy tracking) must not touch this method's numbers.
        assert a.results[name].trust == b.results[name].trust, a.day


@pytest.fixture(scope="module")
def joint_steps(stock_collection):
    runner = StreamRunner(list(METHOD_NAMES), warm_start=True)
    return _feed(runner, *_stream_inputs(stock_collection))


class TestJointStream:
    """One runner over every method == one runner per method."""

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_joint_runner_matches_single_method_runner(
        self, stock_collection, joint_steps, name
    ):
        alone = _feed(
            StreamRunner([name], warm_start=True),
            *_stream_inputs(stock_collection),
        )
        assert len(alone) == len(joint_steps) == 4
        _assert_same_results(joint_steps, alone, name)

    @pytest.mark.parametrize(
        "name", ["Vote", "AccuSim", "AccuCopy", "AccuSimAttr", "2-Estimates"]
    )
    def test_delta_days_match_snapshot_days(self, stock_collection, name):
        """A warm stream fed explicit deltas == the same days as snapshots."""
        stream, _last = _stream_inputs(stock_collection)
        by_delta = StreamRunner([name], warm_start=True)
        by_snapshot = StreamRunner([name], warm_start=True)
        ours = [by_delta.push(stream.base)]
        theirs = [by_snapshot.push(stream.base)]
        for delta, snapshot in zip(stream.deltas, stream.snapshots):
            ours.append(by_delta.push_delta(delta))
            theirs.append(by_snapshot.push(snapshot))
        assert by_delta.days == by_snapshot.days
        _assert_same_results(ours, theirs, name)
