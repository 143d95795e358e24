"""Property-based invariants of sharding a snapshot as a one-day stream.

Random small worlds drive the guarantees of
:class:`~repro.streaming.ShardedStreamCompiler` on a single day:

* the series compile of a snapshot is the snapshot compile, bit for bit;
* every shard's day is the unsharded compile of that shard's slice of the
  snapshot (every source registered, only the shard's objects' claims),
  and solves every one of the sixteen registered methods identically to
  an unsharded run over that slice;
* the shards partition the items.

The stream interns values in its own order, so value codes are compared
after decoding them through each problem's own value table.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.delta import SeriesCompiler
from repro.errors import ConfigError
from repro.fusion.base import FusionProblem
from repro.fusion.registry import METHOD_NAMES, make_method
from repro.parallel import solve_methods
from repro.serving import TruthService, TruthStore
from repro.streaming import (
    ShardedStreamCompiler,
    StreamRunner,
    shard_of_object,
)

from tests.helpers import (
    assert_same_structure,
    build_dataset,
    claim_tables,
    shard_slice,
)


def unsharded_store(dataset, methods) -> TruthStore:
    outcomes = solve_methods(FusionProblem(dataset), methods)
    store = TruthStore()
    store.publish(dataset.day, {n: o.result for n, o in zip(methods, outcomes)})
    return store


def snapshot_of(store: TruthStore):
    snap = store.snapshot()
    return snap.day, snap.methods, snap.truths, snap.trust


def assert_shards_are_their_slices(dataset, n_shards: int) -> None:
    days = ShardedStreamCompiler(n_shards).ingest(dataset)
    assert len(days) == n_shards
    for k, day in enumerate(days):
        part = shard_slice(dataset, n_shards, k)
        if not day.stats.n_active_claims:
            assert part.num_claims == 0, k
            continue
        assert_same_structure(day.problem(), FusionProblem(part))


def assert_shards_solve_like_their_slices(dataset, n_shards, methods) -> None:
    """Each shard's results == an unsharded run over its slice (``==``)."""
    step = StreamRunner(methods, shards=n_shards).push(dataset)
    for k, results in step.shard_results.items():
        reference = StreamRunner(methods).push(
            shard_slice(dataset, n_shards, k)
        )
        for name in methods:
            ours, theirs = results[name], reference.results[name]
            assert ours.selected == theirs.selected, (k, name)
            assert ours.trust == theirs.trust, (k, name)
            assert ours.rounds == theirs.rounds, (k, name)


class TestOneDayShardProperties:
    @given(table=claim_tables())
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_series_day_is_the_snapshot_compile(self, table):
        dataset = build_dataset(table)
        assert_same_structure(
            SeriesCompiler().ingest(dataset).problem(), FusionProblem(dataset)
        )

    @given(table=claim_tables(), n_shards=st.integers(2, 4))
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_shard_days_are_their_slice_compiles(self, table, n_shards):
        assert_shards_are_their_slices(build_dataset(table), n_shards)

    @given(table=claim_tables(), n_shards=st.integers(2, 4))
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_independent_shards_partition_the_items(self, table, n_shards):
        dataset = build_dataset(table)
        days = ShardedStreamCompiler(n_shards).ingest(dataset)
        seen = []
        for day in days:
            if day.stats.n_active_claims:
                seen.extend(day.problem().items)
        base = FusionProblem(dataset)
        assert sorted(seen, key=repr) == sorted(base.items, key=repr)
        assert len(seen) == len(set(seen))

    @given(table=claim_tables(), n_shards=st.integers(2, 4))
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_shards_run_all_sixteen_methods_like_their_slices(
        self, table, n_shards
    ):
        assert_shards_solve_like_their_slices(
            build_dataset(table), n_shards, list(METHOD_NAMES)
        )

    @given(table=claim_tables())
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_k1_day_runs_all_sixteen_methods_identically(self, table):
        dataset = build_dataset(table)
        base = FusionProblem(dataset)
        ours = SeriesCompiler().ingest(dataset).problem()
        for name in METHOD_NAMES:
            result = make_method(name).run(ours)
            reference = make_method(name).run(base)
            assert result.selected == reference.selected, name
            assert result.trust == reference.trust, name


class TestShardDeterministic:
    """The K=4 one-day stream on the tiny Stock snapshot."""

    def test_k4_shards_are_their_slice_compiles(self, stock_snapshot):
        assert_shards_are_their_slices(stock_snapshot, 4)

    def test_exact_service_publishes_the_unsharded_store(self, stock_snapshot):
        methods = list(METHOD_NAMES)
        with TruthService(methods, shards=1) as service:
            service.ingest(stock_snapshot)
            ours = snapshot_of(service.store)
        assert ours == snapshot_of(unsharded_store(stock_snapshot, methods))

    def test_shard_days_match_their_slices_for_all_sixteen(
        self, stock_snapshot
    ):
        assert_shards_solve_like_their_slices(
            stock_snapshot, 4, list(METHOD_NAMES)
        )

    def test_shard_copy_counts_are_their_slice_counts(self, stock_snapshot):
        compiler = ShardedStreamCompiler(4, track_copy_structures=True)
        for k, day in enumerate(compiler.ingest(stock_snapshot)):
            seeded = day.problem().copy_structures
            fresh = FusionProblem(shard_slice(stock_snapshot, 4, k)).copy_structures
            assert np.array_equal(seeded.same, fresh.same), k
            assert np.array_equal(seeded.shared, fresh.shared), k

    def test_independent_service_covers_every_item(self, stock_snapshot):
        with TruthService(["Vote"], shards=4) as service:
            service.ingest(stock_snapshot)
            truths = service.store.snapshot().truths
        expected = {
            (item.object_id, item.attribute)
            for item in FusionProblem(stock_snapshot).items
        }
        assert set(truths) == expected

    def test_oversharding_skips_empty_shards(self):
        dataset = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 10.0,
        })
        days = ShardedStreamCompiler(8).ingest(dataset)
        live = [k for k, day in enumerate(days) if day.stats.n_active_claims]
        assert live == [shard_of_object("o1", 8)]
        assert_same_structure(days[live[0]].problem(), FusionProblem(dataset))
        with TruthService(["Vote"], shards=8) as service:
            service.ingest(dataset)
            assert list(service.runner.steps[-1].shard_results) == live
            # One live shard, one claim per source: its trust merges to
            # itself and the store is the unsharded one.
            assert snapshot_of(service.store) == snapshot_of(
                unsharded_store(dataset, ["Vote"])
            )

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigError):
            ShardedStreamCompiler(1)
        with pytest.raises(ConfigError):
            StreamRunner(["Vote"], shards=0)
        with pytest.raises(ConfigError):
            StreamRunner(["Vote"], shards=2, compiler=SeriesCompiler())
        with pytest.raises(ConfigError):
            TruthService(["Vote"], shards=0)

    def test_cross_shard_is_not_an_option(self):
        """Shards are shard-local; the exact answer is ``shards=1``."""
        with pytest.raises(TypeError):
            StreamRunner(["Vote"], shards=2, cross_shard="exact")
        with pytest.raises(TypeError):
            TruthService(["Vote"], shards=2, cross_shard="independent")
        with pytest.raises(TypeError):
            ShardedStreamCompiler(2, cross_shard="exact")

    def test_object_shards_are_stable_across_processes(self):
        """crc32, not ``hash()``: the same object lands in the same shard
        in every process and on every run."""
        assert [shard_of_object(o, 4) for o in ("o1", "o2", "o3", "o4", "o5")] == [
            1, 3, 1, 2, 0,
        ]
        assert [shard_of_object(o, 3) for o in ("o1", "o2", "o3", "o4", "o5")] == [
            2, 1, 2, 2, 1,
        ]
        compiler = ShardedStreamCompiler(4)
        for object_id in ("o1", "AAPL", "UA-123", "\u00e9t\u00e9"):
            assert compiler.shard_of(object_id) == shard_of_object(object_id, 4)
            assert 0 <= compiler.shard_of(object_id) < 4


@pytest.mark.parametrize("n_shards", [1, 3], ids=["flat", "sharded3"])
def test_sharded_service_on_workers_matches_serial(stock_snapshot, n_shards):
    from repro.parallel import SolveScheduler

    if not SolveScheduler(workers=2).parallel:
        pytest.skip("platform has no usable shared memory")
    methods = ["Vote", "AccuSim", "AccuCopy"]
    stores = []
    for workers in (0, 2):
        with TruthService(methods, workers=workers, shards=n_shards) as service:
            service.ingest(stock_snapshot)
            stores.append(snapshot_of(service.store))
    assert stores[0] == stores[1]
