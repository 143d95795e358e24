"""Property-based invariants of sharding a snapshot as a one-day stream.

Random small worlds drive the two hard guarantees of
:class:`~repro.streaming.ShardedStreamCompiler` on a single day:

* in exact mode the per-shard compilations merge back **bit for bit** into
  the monolithic compile of the snapshot, for any shard count;
* the K=1 series compile, and the exact K-shard service, solve every one
  of the sixteen registered methods identically to the unsharded path.

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

from tests.helpers import PROBLEM_ARRAYS, build_dataset, claim_tables

VALUE_CODES = ("_cluster_value_code", "_claim_value_code")


def one_day_problem(dataset, n_shards: int) -> FusionProblem:
    """The exact K-shard one-day stream's problem (K=1: the series compile)."""
    if n_shards == 1:
        return SeriesCompiler().ingest(dataset).problem()
    return ShardedStreamCompiler(n_shards, "exact").ingest(dataset).problem()


def assert_same_structure(ours: FusionProblem, base: FusionProblem) -> None:
    for name in PROBLEM_ARRAYS:
        if name in VALUE_CODES:
            continue
        assert np.array_equal(getattr(ours, name), getattr(base, name)), name
    for name in VALUE_CODES:
        decoded = [ours._view.values[c] for c in getattr(ours, name).tolist()]
        expected = [base._view.values[c] for c in getattr(base, name).tolist()]
        assert decoded == expected, name
    assert ours.items == base.items
    assert ours.sources == base.sources


def unsharded_store(dataset, methods) -> TruthStore:
    outcomes = solve_methods(FusionProblem(dataset), methods)
    store = TruthStore()
    store.publish(dataset.day, {n: o.result for n, o in zip(methods, outcomes)})
    return store


def snapshot_of(store: TruthStore):
    snap = store.snapshot()
    return snap.day, snap.methods, snap.truths, snap.trust


class TestOneDayShardProperties:
    @given(table=claim_tables(), n_shards=st.integers(1, 4))
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_exact_one_day_stream_is_the_unsharded_compile(
        self, table, n_shards
    ):
        dataset = build_dataset(table)
        assert_same_structure(
            one_day_problem(dataset, n_shards), FusionProblem(dataset)
        )

    @given(table=claim_tables(), n_shards=st.integers(2, 4))
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_independent_shards_partition_the_items(self, table, n_shards):
        dataset = build_dataset(table)
        days = ShardedStreamCompiler(n_shards, "independent").ingest(dataset)
        seen = []
        for day in days:
            if day.stats.n_active_claims:
                seen.extend(day.problem().items)
        base = FusionProblem(dataset)
        assert sorted(seen, key=repr) == sorted(base.items, key=repr)
        assert len(seen) == len(set(seen))

    @given(table=claim_tables())
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_k1_day_runs_all_sixteen_methods_identically(self, table):
        dataset = build_dataset(table)
        base = FusionProblem(dataset)
        ours = one_day_problem(dataset, 1)
        for name in METHOD_NAMES:
            result = make_method(name).run(ours)
            reference = make_method(name).run(base)
            assert result.selected == reference.selected, name
            assert result.trust == reference.trust, name


class TestShardDeterministic:
    """The K=4 exact one-day stream against the unsharded path."""

    def test_merged_k4_is_the_unsharded_compile(
        self, stock_snapshot, stock_problem
    ):
        assert_same_structure(one_day_problem(stock_snapshot, 4), stock_problem)

    def test_exact_service_publishes_the_unsharded_store(self, stock_snapshot):
        methods = list(METHOD_NAMES)
        with TruthService(methods, shards=4) as service:
            service.ingest(stock_snapshot)
            ours = snapshot_of(service.store)
        assert ours == snapshot_of(unsharded_store(stock_snapshot, methods))

    def test_exact_day_matches_unsharded_for_all_sixteen(
        self, stock_snapshot, stock_problem
    ):
        problem = one_day_problem(stock_snapshot, 4)
        for name in METHOD_NAMES:
            result = make_method(name).run(problem)
            reference = make_method(name).run(stock_problem)
            assert result.selected == reference.selected, name
            assert result.trust == reference.trust, name
            assert result.rounds == reference.rounds, name

    def test_copy_counts_sum_to_the_monolithic_counts(
        self, stock_snapshot, stock_problem
    ):
        compiler = ShardedStreamCompiler(4, track_copy_structures=True)
        seeded = compiler.ingest(stock_snapshot).problem().copy_structures
        fresh = stock_problem.copy_structures
        assert np.array_equal(seeded.same, fresh.same)
        assert np.array_equal(seeded.shared, fresh.shared)

    def test_independent_service_covers_every_item(self, stock_snapshot):
        with TruthService(
            ["Vote"], shards=4, cross_shard="independent"
        ) as service:
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
        assert_same_structure(one_day_problem(dataset, 8), FusionProblem(dataset))
        with TruthService(["Vote"], shards=8) as service:
            service.ingest(dataset)
            assert snapshot_of(service.store) == snapshot_of(
                unsharded_store(dataset, ["Vote"])
            )

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigError):
            ShardedStreamCompiler(1)
        with pytest.raises(ConfigError):
            ShardedStreamCompiler(2, cross_shard="sometimes")
        with pytest.raises(ConfigError):
            StreamRunner(["Vote"], shards=0)
        with pytest.raises(ConfigError):
            StreamRunner(["Vote"], shards=2, cross_shard="sometimes")
        with pytest.raises(ConfigError):
            StreamRunner(["Vote"], shards=2, compiler=SeriesCompiler())
        with pytest.raises(ConfigError):
            TruthService(["Vote"], shards=0)

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


@pytest.mark.parametrize("n_shards, mode", [(2, "exact"), (3, "independent")])
def test_sharded_service_on_workers_matches_serial(stock_snapshot, n_shards, mode):
    from repro.parallel import SolveScheduler

    if not SolveScheduler(workers=2).parallel:
        pytest.skip("platform has no usable shared memory")
    methods = ["Vote", "AccuSim", "AccuCopy"]
    stores = []
    for workers in (0, 2):
        with TruthService(
            methods, workers=workers, shards=n_shards, cross_shard=mode
        ) as service:
            service.ingest(stock_snapshot)
            stores.append(snapshot_of(service.store))
    assert stores[0] == stores[1]
