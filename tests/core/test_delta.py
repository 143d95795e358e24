"""Delta compilation: the SeriesCompiler against from-scratch compiles."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import delta as delta_mod
from repro.core.dataset import Dataset
from repro.core.delta import ClaimDelta, SeriesCompiler, splice_compiled
from repro.core.records import Claim, DataItem, SourceMeta
from repro.errors import SchemaError
from repro.fusion.base import FusionProblem
from repro.fusion.registry import METHOD_NAMES, make_method
from repro.parallel import solve_methods
from repro.serving import TruthService, TruthStore

from tests.helpers import (
    assert_same_structure,
    build_dataset,
    claim_tables,
    value_for,
)

METHODS = ("Vote", "AccuSim", "2-Estimates", "TruthFinder")


def assert_problems_equivalent(day, snapshot, methods=METHODS):
    """Delta-compiled problem == cold FusionProblem on every observable."""
    p_new = day.problem()
    p_old = FusionProblem(snapshot)
    assert p_new.n_claims == p_old.n_claims
    assert p_new.n_clusters == p_old.n_clusters
    assert p_new.n_items == p_old.n_items
    assert sorted(p_new.sources) == sorted(p_old.sources)
    tol_new = dict(zip(p_new.attributes, p_new._attr_tol.tolist()))
    tol_old = dict(zip(p_old.attributes, p_old._attr_tol.tolist()))
    assert tol_new == tol_old
    for name in methods:
        r_new = make_method(name).run(p_new)
        r_old = make_method(name).run(p_old)
        assert r_new.selected == r_old.selected, (day.day, name)
        for source_id, trust in r_old.trust.items():
            assert r_new.trust[source_id] == pytest.approx(trust, abs=1e-12)


def materialize(base, sources, claims, day):
    dataset = Dataset(domain=base.domain, day=day, attributes=base.attributes)
    for meta in sources:
        dataset.add_source(meta)
    for (source_id, item), claim in claims.items():
        dataset.add_claim(source_id, item, claim)
    return dataset.freeze()


class TestIngestEquivalence:
    @pytest.mark.parametrize("threshold", [0.5, 2.0])
    def test_generated_series_all_days(
        self, flight_collection, threshold, monkeypatch
    ):
        """Every day of a generated series fuses identically to cold compiles.

        ``threshold=2.0`` forces the splice path even on the high-churn
        generated data; ``0.5`` exercises the full-compile fallback.
        """
        monkeypatch.setattr(delta_mod, "FULL_COMPILE_THRESHOLD", threshold)
        compiler = SeriesCompiler()
        saw_splice = False
        for snapshot in flight_collection.series:
            day = compiler.ingest(snapshot)
            saw_splice |= not day.stats.full_compile
            assert_problems_equivalent(day, snapshot)
        if threshold > 1.0:
            assert saw_splice

    def test_compaction_preserves_equivalence(
        self, flight_collection, monkeypatch
    ):
        monkeypatch.setattr(delta_mod, "DEFAULT_MAX_INACTIVE_RATIO", 0.1)
        compiler = SeriesCompiler()
        compacted = False
        for snapshot in flight_collection.series:
            day = compiler.ingest(snapshot)
            compacted |= day.stats.compacted
            assert_problems_equivalent(day, snapshot, methods=("Vote",))
        assert compacted

    def test_rejects_mismatched_schema(self, flight_collection, stock_collection):
        compiler = SeriesCompiler()
        compiler.ingest(flight_collection.series[0])
        with pytest.raises(SchemaError):
            compiler.ingest(stock_collection.series[0])

    def test_stats_track_churn(self, flight_collection):
        compiler = SeriesCompiler()
        first = compiler.ingest(flight_collection.series[0])
        assert first.stats.full_compile
        assert first.stats.n_added_claims == first.stats.n_active_claims
        assert first.stats.n_removed_claims == 0
        second = compiler.ingest(flight_collection.series[1])
        assert second.stats.n_added_claims > 0
        assert second.stats.n_removed_claims > 0


class TestApplyDelta:
    def _seeded(self):
        base = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 10.0,
            ("s3", "o1", "price"): 12.0,
            ("s1", "o2", "price"): 5.0,
            ("s2", "o2", "price"): 6.0,
            ("s1", "o1", "gate"): "A1",
            ("s2", "o1", "gate"): "A2",
        })
        compiler = SeriesCompiler()
        compiler.ingest(base)
        claims = {}
        for item, source_id, claim in base.iter_claims():
            claims[(source_id, item)] = claim
        return base, compiler, claims, list(base.sources.values())

    def test_value_change_retraction_and_new_source(self):
        base, compiler, claims, metas = self._seeded()
        new_meta = SourceMeta("s9")
        changes = [
            ("s3", DataItem("o1", "price"), Claim(value=10.5)),
            ("s9", DataItem("o2", "price"), Claim(value=5.0)),
            ("s9", DataItem("o3", "price"), Claim(value=7.0)),  # new item
        ]
        delta = ClaimDelta(
            day="d1",
            added=tuple(changes),
            retracted=(("s2", DataItem("o1", "gate")),),
            new_sources=(new_meta,),
        )
        day = compiler.apply_delta(delta)
        for source_id, item, claim in changes:
            claims[(source_id, item)] = claim
        del claims[("s2", DataItem("o1", "gate"))]
        reference = materialize(base, metas + [new_meta], claims, "d1")
        assert_problems_equivalent(day, reference)
        assert day.stats.n_removed_claims >= 2  # replaced value + retraction

    def test_incremental_days_match_full_rebuilds(self, flight_collection):
        """A multi-day random delta stream stays equivalent throughout."""
        from repro.datagen import perturbed_claim_stream

        base = flight_collection.series[0]
        stream = perturbed_claim_stream(base, n_days=3, churn=0.02, seed=3)
        compiler = SeriesCompiler()
        compiler.ingest(base)
        saw_splice = False
        for delta, snapshot in zip(stream.deltas, stream.snapshots):
            day = compiler.apply_delta(delta)
            saw_splice |= not day.stats.full_compile
            assert_problems_equivalent(day, snapshot)
        assert saw_splice  # low churn must take the splice path

    def test_bulk_new_values_match_the_snapshot_compile(self):
        """One delta interning thousands of fresh values at once.

        The fresh values' str ranks are inserted between the existing ones
        however many arrive; the day must still be the snapshot compile,
        bit for bit (value codes compared decoded).
        """
        base, compiler, claims, metas = self._seeded()
        rng = np.random.default_rng(11)
        added = []
        for i in range(2600):
            price = DataItem(f"n{i:04d}", "price")
            gate = DataItem(f"n{i:04d}", "gate")
            added += [
                ("s1", price, Claim(value=round(rng.uniform(1, 1e4), 3))),
                ("s2", price, Claim(value=round(rng.uniform(1, 1e4), 3))),
                ("s1", gate, Claim(value=f"G{rng.integers(10**6):06d}")),
                ("s3", gate, Claim(value=f"A{rng.integers(10**6):06d}")),
            ]
        known = {claim.value for claim in claims.values()}
        fresh = {claim.value for _s, _i, claim in added} - known
        assert len(fresh) > 4096
        day = compiler.apply_delta(ClaimDelta(day="d1", added=tuple(added)))
        for source_id, item, claim in added:
            claims[(source_id, item)] = claim
        reference = materialize(base, metas, claims, "d1")
        assert_same_structure(day.problem(), FusionProblem(reference))
        assert_problems_equivalent(day, reference)

    def test_requires_prior_ingest(self):
        from repro.errors import FusionError

        with pytest.raises(FusionError):
            SeriesCompiler().apply_delta(ClaimDelta(day="d1"))

    def test_rejects_two_adds_in_one_cell(self):
        _base, compiler, _claims, _metas = self._seeded()
        delta = ClaimDelta(
            day="d1",
            added=(
                ("s1", DataItem("o1", "price"), Claim(value=1.0)),
                ("s1", DataItem("o1", "price"), Claim(value=2.0)),
            ),
        )
        with pytest.raises(SchemaError, match="one .source, item. cell"):
            compiler.apply_delta(delta)

    def test_rejects_undeclared_source(self):
        _base, compiler, _claims, _metas = self._seeded()
        delta = ClaimDelta(
            day="d1",
            added=(("ghost", DataItem("o1", "price"), Claim(value=1.0)),),
        )
        with pytest.raises(SchemaError):
            compiler.apply_delta(delta)


def _delta_days():
    """Random day-over-day change sets: adds (≥1/day) and retractions."""
    cell = st.tuples(
        st.sampled_from(("s1", "s2", "s3", "s4", "s9")),
        st.sampled_from(("o1", "o2", "o3", "o4", "o5", "o6")),
        st.sampled_from(("price", "volume", "gate")),
    )
    day = st.tuples(
        st.dictionaries(cell, st.integers(0, 100), min_size=1, max_size=8),
        st.lists(cell, max_size=5),
    )
    return st.lists(day, min_size=1, max_size=4)


class TestDeltaProperties:
    """Random worlds + random ``ClaimDelta`` sequences == cold recompiles."""

    @given(table=claim_tables(min_size=3), days=_delta_days())
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_delta_sequences_match_cold_recompiles(self, table, days):
        base = build_dataset(table)
        compiler = SeriesCompiler()
        compiler.ingest(base)
        claims = {}
        for item, source_id, claim in base.iter_claims():
            claims[(source_id, item)] = claim
        metas = {source_id: meta for source_id, meta in base.sources.items()}

        for index, (adds, retracts) in enumerate(days):
            new_sources = []
            for source_id, _obj, _attr in adds:
                if source_id not in metas:
                    meta = SourceMeta(source_id)
                    metas[source_id] = meta
                    new_sources.append(meta)
            added = []
            for (source_id, obj, attr), pick in adds.items():
                claim = Claim(value=value_for(attr, pick))
                added.append((source_id, DataItem(obj, attr), claim))
            retracted = [
                (source_id, DataItem(obj, attr))
                for source_id, obj, attr in retracts
                if source_id in metas
            ]
            delta = ClaimDelta(
                day=f"d{index + 1}",
                added=tuple(added),
                retracted=tuple(retracted),
                new_sources=tuple(new_sources),
            )
            # Reference semantics: retractions empty their cells, then adds
            # (re)fill theirs — exactly apply_delta's masking order.
            for source_id, item in retracted:
                claims.pop((source_id, item), None)
            for source_id, item, claim in added:
                claims[(source_id, item)] = claim

            day = compiler.apply_delta(delta)
            reference = materialize(
                base, list(metas.values()), claims, delta.day
            )
            assert_problems_equivalent(day, reference, methods=("Vote", "AccuSim"))


class TestOneDayStream:
    """A snapshot is a one-day stream: its series compile is the snapshot
    compile, and a one-day service publishes the snapshot path's store."""

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

    @pytest.mark.parametrize("name", METHOD_NAMES)
    @given(table=claim_tables())
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_day_runs_each_method_identically(self, name, table):
        dataset = build_dataset(table)
        result = make_method(name).run(SeriesCompiler().ingest(dataset).problem())
        reference = make_method(name).run(FusionProblem(dataset))
        assert result.selected == reference.selected
        assert result.trust == reference.trust

    def test_exact_service_publishes_the_unsharded_store(self, stock_snapshot):
        methods = list(METHOD_NAMES)
        service = TruthService(methods)
        service.ingest(stock_snapshot)
        ours = service.store.snapshot()
        outcomes = solve_methods(FusionProblem(stock_snapshot), methods)
        reference = TruthStore()
        reference.publish(
            stock_snapshot.day,
            {name: outcome.result for name, outcome in zip(methods, outcomes)},
        )
        theirs = reference.snapshot()
        assert (ours.day, ours.methods, ours.truths, ours.trust) == (
            theirs.day, theirs.methods, theirs.truths, theirs.trust
        )


class TestInsertScatter:
    """The batched allocation+scatter insert == the np.insert reference."""

    @staticmethod
    def _np_insert_claims(compiler, item, src, val, granc, keys):
        """The pre-batching reference: one np.insert per store column."""
        if len(compiler._item_counts) < len(compiler._items):
            compiler._item_counts = np.concatenate((
                compiler._item_counts,
                np.zeros(
                    len(compiler._items) - len(compiler._item_counts),
                    dtype=np.int64,
                ),
            ))
        item_start = compiler._item_start()
        ins = item_start[item + 1]
        order = np.lexsort((item, ins))
        ins = ins[order]
        item, src = item[order], src[order]
        val, granc, keys = val[order], granc[order], keys[order]
        compiler._s_item = np.insert(compiler._s_item, ins, item)
        compiler._s_src = np.insert(compiler._s_src, ins, src)
        compiler._s_val = np.insert(compiler._s_val, ins, val)
        compiler._s_granc = np.insert(compiler._s_granc, ins, granc)
        compiler._s_key = np.insert(compiler._s_key, ins, keys)
        np.add.at(compiler._item_counts, item, 1)
        final = ins + np.arange(len(ins), dtype=np.int64)
        if len(compiler._key_pos):
            compiler._key_pos = compiler._key_pos + np.searchsorted(
                ins, compiler._key_pos, side="right"
            )
        korder = np.argsort(keys, kind="stable")
        kpos = np.searchsorted(compiler._key_sorted, keys[korder])
        compiler._key_sorted = np.insert(
            compiler._key_sorted, kpos, keys[korder]
        )
        compiler._key_pos = np.insert(compiler._key_pos, kpos, final[korder])
        old_dest = np.delete(
            np.arange(len(compiler._s_item), dtype=np.int64), final
        )
        return ins, final, old_dest

    def _stream(self, seed):
        from repro.datagen import perturbed_claim_stream

        base = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 11.0,
            ("s1", "o2", "price"): 5.0,
            ("s2", "o2", "volume"): 6.0,
            ("s3", "o3", "gate"): "A1",
            ("s1", "o3", "gate"): "A2",
            ("s3", "o4", "price"): 50.0,
        })
        return base, perturbed_claim_stream(base, n_days=4, churn=0.4, seed=seed)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_store_bit_identical_to_np_insert(self, seed, monkeypatch):
        base, stream = self._stream(seed)

        fast = SeriesCompiler()
        fast.ingest(base)
        reference = SeriesCompiler()
        monkeypatch.setattr(
            SeriesCompiler,
            "_insert_claims",
            self._np_insert_claims,
            raising=True,
        )
        reference.ingest(base)
        monkeypatch.undo()

        for delta in stream.deltas:
            fast.apply_delta(delta)
            monkeypatch.setattr(
                SeriesCompiler, "_insert_claims", self._np_insert_claims
            )
            reference.apply_delta(delta)
            monkeypatch.undo()
            for field in (
                "_s_item", "_s_src", "_s_val", "_s_granc", "_s_key",
                "_item_counts", "_active", "_key_sorted", "_key_pos",
            ):
                assert np.array_equal(
                    getattr(fast, field), getattr(reference, field)
                ), (delta.day, field)


class TestSpliceKernel:
    def test_splice_with_no_dirty_items_is_identity(self, flight_snapshot):
        from repro.core.columnar import CompiledClusters

        compiler = SeriesCompiler()
        day = compiler.ingest(flight_snapshot)
        empty = CompiledClusters(
            item_index=np.zeros(0, dtype=np.int64),
            item_attr=np.zeros(0, dtype=np.int64),
            item_start=np.zeros(1, dtype=np.int64),
            cluster_item=np.zeros(0, dtype=np.int64),
            cluster_value=np.zeros(0, dtype=np.int64),
            cluster_support=np.zeros(0, dtype=np.int64),
            claim_source=np.zeros(0, dtype=np.int64),
            claim_cluster=np.zeros(0, dtype=np.int64),
            claim_value=np.zeros(0, dtype=np.int64),
            claim_granularity=np.zeros(0, dtype=np.float64),
        )
        dirty = np.zeros(len(day.view.items), dtype=bool)
        spliced = splice_compiled(day.compiled, empty, dirty)
        assert np.array_equal(spliced.item_index, day.compiled.item_index)
        assert np.array_equal(spliced.claim_cluster, day.compiled.claim_cluster)
        assert np.array_equal(spliced.cluster_value, day.compiled.cluster_value)
