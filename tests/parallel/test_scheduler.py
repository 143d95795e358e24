"""Determinism and hygiene of the shared-memory solve scheduler.

The hard guarantees of the parallel engine: every registered method
produces bit-identical selections and trust (within 1e-12) under
``workers=4`` versus serial — on the full problem, on a
``restrict_sources`` sweep, and on a streaming day — and no shared-memory
segments survive pool shutdown, even after a worker crash.
"""

import os
import signal
import threading
import time

import pytest

from repro.evaluation.metrics import evaluate
from repro.evaluation.ordering import recall_as_sources_added, sources_by_recall
from repro.fusion.registry import METHOD_NAMES, make_method
from repro.parallel import MethodCall, SolveJob, SolveScheduler, solve_methods

#: Worker-pool width of the determinism tests.  CI overrides this to match
#: the runner's cores (``REPRO_TEST_WORKERS=2`` on the hosted 2-core VMs),
#: validating the scaling configuration on real multi-core hardware.
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "4"))

pytestmark = pytest.mark.skipif(
    not SolveScheduler(workers=2).parallel,
    reason="platform has no usable shared memory",
)


def _await_broken(pool, timeout: float = 30.0) -> None:
    """Block until ``pool`` has registered a dead worker (bounded wait)."""
    deadline = time.monotonic() + timeout
    while not pool._broken:
        if time.monotonic() > deadline:
            pytest.fail(f"pool did not register the dead worker in {timeout}s")
        time.sleep(0.01)


@pytest.fixture(scope="module")
def stock():
    from repro.experiments.context import get_context

    return get_context("tiny").collection("stock")


@pytest.fixture(scope="module")
def problem(stock):
    from repro.experiments.context import get_context

    return get_context("tiny").problem("stock")


@pytest.fixture(scope="module")
def scheduler():
    with SolveScheduler(workers=WORKERS) as sched:
        yield sched


def _attachable(segment: str) -> bool:
    from multiprocessing import shared_memory

    try:
        handle = shared_memory.SharedMemory(name=segment)
    except FileNotFoundError:
        return False
    handle.close()
    return True


class TestParallelDeterminism:
    def test_all_sixteen_methods_match_serial(self, problem, scheduler):
        serial = {name: make_method(name).run(problem) for name in METHOD_NAMES}
        outcomes = solve_methods(
            problem, list(METHOD_NAMES), scheduler=scheduler, key="full"
        )
        for name, outcome in zip(METHOD_NAMES, outcomes):
            reference = serial[name]
            assert outcome.result.selected == reference.selected, name
            assert outcome.result.rounds == reference.rounds, name
            assert outcome.result.converged == reference.converged, name
            for source, trust in reference.trust.items():
                assert outcome.result.trust[source] == pytest.approx(
                    trust, abs=1e-12
                ), (name, source)
            if reference.attr_trust is not None:
                for cell, trust in reference.attr_trust.items():
                    assert outcome.result.attr_trust[cell] == pytest.approx(
                        trust, abs=1e-12
                    ), (name, cell)

    def test_restricted_jobs_match_serial(self, problem, scheduler, stock):
        order = sources_by_recall(stock.snapshot, stock.gold)
        subset = order[: len(order) // 2]
        outcomes = scheduler.run([
            SolveJob(
                problem=scheduler.register("full", problem),
                calls=[MethodCall("AccuSim"), MethodCall("AccuCopy")],
                sources=list(subset),
            )
        ])[0].calls
        sub = problem.restrict_sources(subset)
        for outcome in outcomes:
            reference = make_method(outcome.method).run(sub)
            assert outcome.result.selected == reference.selected
            for source, trust in reference.trust.items():
                assert outcome.result.trust[source] == pytest.approx(trust, abs=1e-12)

    def test_sweep_matches_serial_loop(self, problem, scheduler, stock):
        snapshot, gold = stock.snapshot, stock.gold
        order = sources_by_recall(snapshot, gold)
        sizes = sorted(set(list(range(1, 8)) + [15, len(order)]))
        methods = ("Vote", "AccuSim", "Hub")
        parallel = recall_as_sources_added(
            snapshot, gold, methods, ordering=order, prefix_sizes=sizes,
            problem=problem, scheduler=scheduler,
        )
        for name in methods:
            serial = []
            for size in sizes:
                sub = problem.restrict_sources(order[:size])
                result = make_method(name).run(sub)
                serial.append(evaluate(sub, gold, result).recall)
            assert parallel[name].recalls == serial, name

    def test_streaming_day_matches_serial(self, stock):
        from repro.streaming import StreamRunner

        methods = ["Vote", "AccuSim", "AccuCopy", "AccuSimAttr"]
        serial = StreamRunner(methods, warm_start=True)
        with StreamRunner(methods, warm_start=True, workers=WORKERS) as parallel:
            for snapshot in list(stock.series)[:2]:
                reference = serial.push(snapshot)
                step = parallel.push(snapshot)
                for name in methods:
                    a, b = reference.results[name], step.results[name]
                    assert b.selected == a.selected, (snapshot.day, name)
                    assert b.rounds == a.rounds, (snapshot.day, name)
                    assert b.extras["warm_started"] == a.extras["warm_started"]
                    for source, trust in a.trust.items():
                        assert b.trust[source] == pytest.approx(
                            trust, abs=1e-12
                        ), (snapshot.day, name, source)

    def test_serial_fallback_is_the_same_code_path(self, problem):
        outcomes = solve_methods(problem, ["AccuPr"], workers=0)
        reference = make_method("AccuPr").run(problem)
        assert outcomes[0].result.selected == reference.selected
        assert outcomes[0].result.trust == reference.trust

    def test_shard_jobs_match_parent_side_compiles(self, stock, problem, scheduler):
        """Workers carving shards from the shared view == parent compiles."""
        from repro.core.shard import ShardedCorpus

        corpus = ShardedCorpus(stock.snapshot, 3, cross_shard="independent")
        key = scheduler.register("full", problem)
        jobs = [
            SolveJob(
                problem=key,
                calls=[MethodCall("Vote"), MethodCall("AccuSim")],
                shard=corpus.spec(index),
            )
            for index in corpus.shards
        ]
        outcomes = scheduler.run(jobs)
        for index, outcome in zip(corpus.shards, outcomes):
            shard = corpus.problem(index)
            for call in outcome.calls:
                reference = make_method(call.method).run(shard)
                assert call.result.selected == reference.selected, (index, call.method)
                for source, trust in reference.trust.items():
                    assert call.result.trust[source] == pytest.approx(
                        trust, abs=1e-12
                    ), (index, call.method, source)

    def test_shard_jobs_compose_with_subset_sweeps(self, stock, problem, scheduler):
        """A job carrying both a shard and subsets sweeps *within* the shard."""
        from repro.core.shard import ShardedCorpus
        from repro.fusion.batch import solve_restrictions

        corpus = ShardedCorpus(stock.snapshot, 2, cross_shard="independent")
        index = corpus.shards[0]
        shard = corpus.problem(index)
        subsets = [shard.sources[: len(shard.sources) // 2], list(shard.sources)]
        key = scheduler.register("full", problem)
        outcome = scheduler.run([
            SolveJob(
                problem=key,
                calls=[MethodCall("Vote")],
                shard=corpus.spec(index),
                subsets=[list(s) for s in subsets],
            )
        ])[0]
        reference = solve_restrictions(shard, make_method("Vote"), subsets)
        for row, expected in zip(outcome.sweep, reference):
            assert row[0].result.selected == expected.result.selected

    def test_shard_plan_parallel_matches_serial(self, stock, scheduler):
        from repro.core.shard import ShardedCorpus, ShardPlan

        methods = ["Vote", "AccuSim"]
        serial = ShardPlan(
            ShardedCorpus(stock.snapshot, 3, cross_shard="independent"), methods
        ).run()
        parallel = ShardPlan(
            ShardedCorpus(stock.snapshot, 3, cross_shard="independent"), methods
        ).run(scheduler=scheduler)
        assert parallel.shard_ids == serial.shard_ids
        for ours, reference in zip(parallel.shard_results, serial.shard_results):
            for name in methods:
                assert ours[name].selected == reference[name].selected, name
                for source, trust in reference[name].trust.items():
                    assert ours[name].trust[source] == pytest.approx(
                        trust, abs=1e-12
                    ), (name, source)


class TestViewOnlyExport:
    """The compile-free shard path: view exports instead of problem exports."""

    def test_independent_plan_compiles_nothing_in_the_parent(self, stock, scheduler):
        from repro.core.shard import ShardedCorpus, ShardPlan
        from repro.fusion import base

        methods = ["Vote", "AccuSim"]
        serial = ShardPlan(
            ShardedCorpus(stock.snapshot, 3, cross_shard="independent"), methods
        ).run()
        corpus = ShardedCorpus(stock.snapshot, 3, cross_shard="independent")
        corpus.view  # the parent-side cost: the view build, not a compile
        before = base.PROBLEM_COMPILES
        parallel = ShardPlan(corpus, methods).run(scheduler=scheduler)
        assert base.PROBLEM_COMPILES == before  # zero parent-side compiles
        assert parallel.shard_ids == serial.shard_ids
        for ours, reference in zip(parallel.shard_results, serial.shard_results):
            for name in methods:
                assert ours[name].selected == reference[name].selected, name
                for source, trust in reference[name].trust.items():
                    assert ours[name].trust[source] == pytest.approx(
                        trust, abs=1e-12
                    ), (name, source)

    def test_serial_fallback_never_compiles_the_monolith(self, stock):
        from repro.core.shard import ShardedCorpus, ShardPlan
        from repro.fusion import base

        corpus = ShardedCorpus(stock.snapshot, 3, cross_shard="independent")
        corpus.view
        before = base.PROBLEM_COMPILES
        result = ShardPlan(corpus, ["Vote"]).run()
        # One compile per live shard, none for the whole snapshot.
        assert base.PROBLEM_COMPILES - before == len(result.shard_ids)

    def test_view_shard_jobs_match_parent_side_compiles(self, stock, scheduler):
        """Worker-carved view shards == the corpus's own shard compiles."""
        from repro.core.shard import ShardedCorpus

        corpus = ShardedCorpus(stock.snapshot, 3, cross_shard="independent")
        key = scheduler.register_view(
            "view", corpus.view,
            shard_codes=corpus.item_codes,
            n_shards=corpus.n_shards,
            assign=corpus.assign,
        )
        jobs = [
            SolveJob(
                problem=key,
                calls=[MethodCall("Vote"), MethodCall("AccuSim")],
                shard=corpus.spec(index),
            )
            for index in corpus.shards
        ]
        outcomes = scheduler.run(jobs)
        for index, outcome in zip(corpus.shards, outcomes):
            shard = corpus.problem(index)
            for call in outcome.calls:
                reference = make_method(call.method).run(shard)
                assert call.result.selected == reference.selected, (index, call.method)
                for source, trust in reference.trust.items():
                    assert call.result.trust[source] == pytest.approx(
                        trust, abs=1e-12
                    ), (index, call.method, source)

    def test_view_jobs_require_a_shard(self, stock, scheduler):
        from repro.errors import FusionError

        key = scheduler.register_view("bare-view", stock.snapshot.columnar)
        with pytest.raises(FusionError, match="shard jobs"):
            scheduler.run([SolveJob(problem=key, calls=[MethodCall("Vote")])])

    def test_view_segments_do_not_survive_close(self, stock):
        from repro.core.shard import ShardedCorpus

        corpus = ShardedCorpus(stock.snapshot, 2, cross_shard="independent")
        scheduler = SolveScheduler(workers=2)
        scheduler.register_view(
            "view", corpus.view,
            shard_codes=corpus.item_codes, n_shards=2, assign="hash",
        )
        segments = [
            registration.descriptor.bundle.segment
            for registration in scheduler._registrations.values()
            if registration.descriptor is not None
        ]
        assert segments and all(_attachable(s) for s in segments)
        scheduler.close()
        assert not any(_attachable(s) for s in segments)

    def test_view_export_is_read_only_when_attached(self, stock):
        import numpy as np

        from repro.core.shm import AttachedBundle, ViewBundle

        view = stock.snapshot.columnar
        bundle = ViewBundle.create_from_view(view)
        try:
            attached = AttachedBundle(bundle.descriptor)
            try:
                for name, array in attached.arrays.items():
                    assert not array.flags.writeable, name
                with pytest.raises(ValueError):
                    attached["v_claim_source"][0] = 99
                assert np.array_equal(
                    attached["v_claim_source"], view.claim_source
                )
            finally:
                attached.close()
        finally:
            bundle.close()
            bundle.unlink()

    def test_global_scope_view_jobs_use_exported_tolerances(self, stock, scheduler):
        """Precomputed Equation-3 medians ride the export; workers reuse them.

        A global-tolerance-scope spec against a view registered with
        ``attr_tol`` must equal the exact corpus's own shard problems (which
        share the snapshot-global medians) without any worker median pass.
        """
        from repro.core.shard import ShardedCorpus

        corpus = ShardedCorpus(stock.snapshot, 2, cross_shard="exact")
        key = scheduler.register_view(
            "view-tol", corpus.view,
            shard_codes=corpus.item_codes,
            n_shards=corpus.n_shards,
            assign=corpus.assign,
            attr_tol=corpus.global_tolerances(),
        )
        jobs = [
            SolveJob(
                problem=key,
                calls=[MethodCall("AccuSim")],
                shard=corpus.spec(index),  # tolerance_scope == "global"
            )
            for index in corpus.shards
        ]
        assert corpus.spec(corpus.shards[0]).tolerance_scope == "global"
        outcomes = scheduler.run(jobs)
        for index, outcome in zip(corpus.shards, outcomes):
            reference = make_method("AccuSim").run(corpus.problem(index))
            call = outcome.calls[0]
            assert call.result.selected == reference.selected, index
            for source, trust in reference.trust.items():
                assert call.result.trust[source] == pytest.approx(
                    trust, abs=1e-12
                ), (index, source)

    def test_reregistering_a_view_with_gold_upgrades_the_export(self, stock, problem):
        """A gold standard supplied later must reach the workers (re-export)."""
        from repro.core.gold import GoldStandard
        from repro.core.shard import ShardedCorpus

        corpus = ShardedCorpus(stock.snapshot, 2, cross_shard="independent")
        scheduler = SolveScheduler(workers=2)
        try:
            key = scheduler.register_view(
                "upg", corpus.view,
                shard_codes=corpus.item_codes, n_shards=2, assign="hash",
            )
            first = [
                r.descriptor.bundle.segment
                for r in scheduler._registrations.values()
                if r.descriptor is not None
            ]
            scheduler.register_view("upg", corpus.view, gold=stock.gold)
            second = [
                r.descriptor.bundle.segment
                for r in scheduler._registrations.values()
                if r.descriptor is not None
            ]
            assert first != second  # upgraded in place, old segment gone
            assert not any(_attachable(s) for s in first)
            jobs = [
                SolveJob(
                    problem=key, calls=[MethodCall("Vote")],
                    shard=corpus.spec(index), evaluate=True,
                )
                for index in corpus.shards
            ]
            outcomes = scheduler.run(jobs)
            for outcome in outcomes:
                assert outcome.calls[0].precision is not None
            # Same view, nothing new: free, no re-export.
            scheduler.register_view("upg", corpus.view, gold=stock.gold)
            third = [
                r.descriptor.bundle.segment
                for r in scheduler._registrations.values()
                if r.descriptor is not None
            ]
            assert third == second
        finally:
            scheduler.close()

    def test_shipped_codes_match_worker_rehash(self, stock, scheduler):
        """A spec whose (K, assign) differs from the shipped codes still works."""
        from repro.core.shard import ShardedCorpus, ShardSpec

        corpus = ShardedCorpus(stock.snapshot, 2, cross_shard="independent")
        key = scheduler.register_view(
            "view2", corpus.view,
            shard_codes=corpus.item_codes, n_shards=2, assign="hash",
        )
        other = ShardedCorpus(stock.snapshot, 3, cross_shard="independent")
        jobs = [
            SolveJob(
                problem=key,
                calls=[MethodCall("Vote")],
                shard=ShardSpec(3, index, "hash", "shard"),
            )
            for index in other.shards
        ]
        outcomes = scheduler.run(jobs)
        for index, outcome in zip(other.shards, outcomes):
            reference = make_method("Vote").run(other.problem(index))
            assert outcome.calls[0].result.selected == reference.selected, index


class TestSchedulerHygiene:
    def _segments(self, scheduler):
        return [
            registration.descriptor.bundle.segment
            for registration in scheduler._registrations.values()
            if registration.descriptor is not None
        ]

    def test_no_segments_survive_close(self, problem):
        scheduler = SolveScheduler(workers=2)
        solve_methods(problem, ["Vote"], scheduler=scheduler, key="p")
        segments = self._segments(scheduler)
        assert segments and all(_attachable(s) for s in segments)
        scheduler.close()
        assert not any(_attachable(s) for s in segments)

    def test_no_segments_survive_worker_crash(self, problem):
        scheduler = SolveScheduler(workers=2)
        try:
            solve_methods(problem, ["Vote"], scheduler=scheduler, key="p")
            segments = self._segments(scheduler)
            assert segments
            victim = next(iter(scheduler._pool._processes))
            os.kill(victim, signal.SIGKILL)
            # The executor notices the death on its manager thread; dispatch
            # only once it has, or the job may still land on the survivor.
            _await_broken(scheduler._pool)
            with pytest.raises(Exception):
                solve_methods(problem, ["Vote"], scheduler=scheduler, key="p")
        finally:
            scheduler.close()
        assert not any(_attachable(s) for s in segments)

    def test_close_is_idempotent(self, problem):
        scheduler = SolveScheduler(workers=2)
        solve_methods(problem, ["Vote"], scheduler=scheduler, key="p")
        segments = self._segments(scheduler)
        scheduler.close()
        scheduler.close()  # double close must be a safe no-op
        assert not any(_attachable(s) for s in segments)
        assert scheduler._registrations == {}

    def test_worker_death_mid_plan_leaves_no_segments(self, problem):
        """A worker SIGKILLed while a plan is in flight must not leak shm."""
        scheduler = SolveScheduler(workers=2)
        try:
            key = scheduler.register("p", problem)
            solve_methods(problem, ["Vote"], scheduler=scheduler, key="p")
            segments = self._segments(scheduler)
            assert segments
            victim = next(iter(scheduler._pool._processes))
            # Convergence at tolerance 0 is impossible, so every job spins
            # until the kill lands mid-plan.
            jobs = [
                SolveJob(problem=key, calls=[
                    MethodCall("Vote", kwargs={
                        "max_rounds": 1_000_000, "tolerance": 0.0,
                    })
                ])
                for _ in range(4)
            ]
            killer = threading.Timer(0.3, os.kill, (victim, signal.SIGKILL))
            killer.start()
            try:
                with pytest.raises(Exception):
                    scheduler.run(jobs)
            finally:
                killer.cancel()
        finally:
            scheduler.close()
        assert not any(_attachable(s) for s in segments)

    def test_reregistering_a_key_replaces_the_export(self, problem, stock):
        from repro.fusion.base import FusionProblem

        scheduler = SolveScheduler(workers=2)
        try:
            scheduler.register("day", problem)
            first = self._segments(scheduler)
            other = FusionProblem(stock.series.snapshots[0])
            scheduler.register("day", other)
            second = self._segments(scheduler)
            assert first != second
            assert not any(_attachable(s) for s in first)
            assert all(_attachable(s) for s in second)
            # Same object re-registered: free, nothing re-exported.
            scheduler.register("day", other)
            assert self._segments(scheduler) == second
        finally:
            scheduler.close()
