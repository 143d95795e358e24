"""Sharded streaming: K shard-local series compilers vs per-shard slices.

The load-bearing guarantee: every shard of ``StreamRunner(shards=K)`` is
an unsharded stream over that shard's slice of the data (every source
registered, only the shard's objects' claims), so per-day selections,
rounds, and trust **floats** match an unsharded
:class:`~repro.streaming.StreamRunner` fed the slices — for all sixteen
registered methods, on both the snapshot-ingest and explicit-delta paths,
through store compaction.  The merge (disjoint-item union with
claim-weighted mean trust) is the documented approximation; the exact
answer is the unsharded runner.
"""

import os

import pytest

from repro.errors import ConfigError, FusionError
from repro.fusion.registry import METHOD_NAMES
from repro.streaming import ShardedStreamCompiler, StreamRunner

from tests.helpers import shard_delta, shard_slice

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "4"))


@pytest.fixture(scope="module")
def stock():
    from repro.experiments.context import get_context

    return get_context("tiny").collection("stock")


def _assert_results_equal(reference, results, methods, label):
    for name in methods:
        a, b = reference[name], results[name]
        assert b.selected == a.selected, (label, name)
        assert b.rounds == a.rounds, (label, name)
        # Bit-identical, not approximately equal: a shard compiles and
        # solves exactly what an unsharded runner does on its slice.
        assert b.trust == a.trust, (label, name)


def _assert_shards_match_slices(step, slice_steps, methods):
    assert sorted(step.shard_results) == list(range(len(slice_steps)))
    for k, slice_step in enumerate(slice_steps):
        _assert_results_equal(
            slice_step.results, step.shard_results[k], methods, (step.day, k)
        )


class TestShardSliceStreaming:
    N_SHARDS = 3

    def _runners(self, methods):
        sharded = StreamRunner(methods, warm_start=True, shards=self.N_SHARDS)
        slices = [
            StreamRunner(methods, warm_start=True)
            for _ in range(self.N_SHARDS)
        ]
        return sharded, slices

    def _push(self, sharded, slices, snapshot):
        step = sharded.push(snapshot)
        slice_steps = [
            runner.push(shard_slice(snapshot, self.N_SHARDS, k))
            for k, runner in enumerate(slices)
        ]
        return step, slice_steps

    def _push_delta(self, sharded, slices, delta):
        step = sharded.push_delta(delta)
        slice_steps = [
            runner.push_delta(shard_delta(delta, self.N_SHARDS, k))
            for k, runner in enumerate(slices)
        ]
        return step, slice_steps

    def test_all_sixteen_methods_match_their_slices(self, stock):
        methods = list(METHOD_NAMES)
        sharded, slices = self._runners(methods)
        for snapshot in list(stock.series)[:2]:
            step, slice_steps = self._push(sharded, slices, snapshot)
            _assert_shards_match_slices(step, slice_steps, methods)

    def test_delta_path_matches_their_slices(self, stock):
        from repro.datagen import perturbed_claim_stream

        methods = ["Vote", "AccuSim", "AccuCopy", "AccuSimAttr", "2-Estimates"]
        base = stock.series.snapshots[0]
        stream = perturbed_claim_stream(base, n_days=3, churn=0.03, seed=5)
        sharded, slices = self._runners(methods)
        _assert_shards_match_slices(
            *self._push(sharded, slices, stream.base), methods
        )
        for delta in stream.deltas:
            _assert_shards_match_slices(
                *self._push_delta(sharded, slices, delta), methods
            )

    def test_equivalence_survives_compaction(self, stock, monkeypatch):
        from repro.core import delta as delta_mod
        from repro.datagen import perturbed_claim_stream

        monkeypatch.setattr(delta_mod, "DEFAULT_MAX_INACTIVE_RATIO", 0.05)
        methods = ["Vote", "AccuSim"]
        base = stock.series.snapshots[0]
        stream = perturbed_claim_stream(base, n_days=4, churn=0.3, seed=9)
        sharded, slices = self._runners(methods)
        self._push(sharded, slices, stream.base)
        compacted = False
        for delta in stream.deltas:
            step, slice_steps = self._push_delta(sharded, slices, delta)
            compacted |= step.stats.compacted
            _assert_shards_match_slices(step, slice_steps, methods)
        assert compacted  # the low ratio must actually trigger compaction

    def test_merged_stats_aggregate_the_shards(self, stock):
        sharded = StreamRunner(["Vote"], shards=3)
        snapshot = stock.series.snapshots[0]
        step = sharded.push(snapshot)
        assert step.stats.n_active_claims == snapshot.num_claims
        assert step.stats.n_added_claims == snapshot.num_claims


class TestIndependentShardedStreaming:
    def test_selected_items_partition_exactly(self, stock):
        sharded = StreamRunner(["Vote", "AccuSim"], shards=3)
        for snapshot in list(stock.series)[:2]:
            step = sharded.push(snapshot)
            assert step.shard_results is not None
            for name in ("Vote", "AccuSim"):
                per_shard = [
                    set(results[name].selected)
                    for results in step.shard_results.values()
                ]
                union = set().union(*per_shard)
                assert sum(len(s) for s in per_shard) == len(union)
                assert union == set(step.results[name].selected)

    def test_trust_is_claim_weighted_mean(self, stock):
        snapshot = stock.series.snapshots[0]
        sharded = StreamRunner(["Vote"], shards=2)
        step = sharded.push(snapshot)
        merged = step.results["Vote"].trust
        for source, value in merged.items():
            lo = min(
                results["Vote"].trust[source]
                for results in step.shard_results.values()
            )
            hi = max(
                results["Vote"].trust[source]
                for results in step.shard_results.values()
            )
            assert lo - 1e-12 <= value <= hi + 1e-12, source

    def test_warm_sessions_are_per_shard(self, stock):
        sharded = StreamRunner(["AccuPr"], shards=2)
        first = sharded.push(stock.series.snapshots[0])
        second = sharded.push(stock.series.snapshots[1])
        for results in second.shard_results.values():
            assert results["AccuPr"].extras["warm_started"]
        for results in first.shard_results.values():
            assert not results["AccuPr"].extras["warm_started"]

    @pytest.mark.skipif(
        not __import__("repro.parallel", fromlist=["SolveScheduler"])
        .SolveScheduler(workers=2).parallel,
        reason="platform has no usable shared memory",
    )
    def test_workers_match_serial(self, stock):
        methods = ["Vote", "AccuSim"]
        serial = StreamRunner(methods, warm_start=True, shards=3)
        with StreamRunner(
            methods, warm_start=True, shards=3, workers=WORKERS,
        ) as parallel:
            for snapshot in list(stock.series)[:2]:
                a = serial.push(snapshot)
                b = parallel.push(snapshot)
                _assert_results_equal(
                    a.results, b.results, methods, snapshot.day
                )
                for k, results in a.shard_results.items():
                    _assert_results_equal(
                        results, b.shard_results[k], methods, (snapshot.day, k)
                    )


class TestShardedStreamValidation:
    def test_rejects_external_compiler(self):
        from repro.core.delta import SeriesCompiler

        with pytest.raises(ConfigError, match="mutually exclusive"):
            StreamRunner(["Vote"], shards=2, compiler=SeriesCompiler())

    def test_rejects_single_shard_compiler(self):
        with pytest.raises(ConfigError):
            ShardedStreamCompiler(1)

    def test_runner_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigError, match=">= 1"):
            StreamRunner(["Vote"], shards=0)

    def test_delta_before_ingest_raises(self):
        from repro.core.delta import ClaimDelta

        runner = StreamRunner(["Vote"], shards=2)
        with pytest.raises(FusionError, match="prior ingest"):
            runner.push_delta(ClaimDelta(day="d1"))
