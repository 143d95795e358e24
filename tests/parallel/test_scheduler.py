"""Determinism and hygiene of the shared-memory solve scheduler.

The hard guarantees of the parallel engine: every registered method
produces the serial selections and trust on ``WORKERS`` workers —
bit-identical on the full problem, on a ``restrict_sources`` sweep and on
Table 9's daily snapshots — no shared-memory segments
survive pool shutdown, even after a worker crash, and a paper reproduction
starts exactly one pool.
"""

import os
import re
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
            assert outcome.result.trust == reference.trust, name
            assert outcome.result.attr_trust == reference.attr_trust, name

    def test_restricted_jobs_match_serial(self, problem, scheduler, stock):
        order = sources_by_recall(stock.snapshot, stock.gold)
        subset = order[: len(order) // 2]
        (row,) = scheduler.run([
            SolveJob(
                problem=scheduler.register("full", problem, gold=stock.gold),
                calls=[MethodCall("AccuSim"), MethodCall("AccuCopy")],
                subsets=[list(subset)],
            )
        ])[0].sweep
        sub = problem.restrict_sources(subset)
        for outcome in row:
            reference = make_method(outcome.method).run(sub)
            assert outcome.rounds == reference.rounds, outcome.method
            assert list(outcome.trust) == [
                reference.trust[source] for source in sub.sources
            ], outcome.method
            # Sweep jobs return scores, not selections: the scores pin them.
            scored = evaluate(sub, stock.gold, reference)
            assert (outcome.precision, outcome.recall) == (
                scored.precision, scored.recall
            ), outcome.method

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

    def test_table9_days_match_serial(self, stock):
        """Table 9 on workers is the serial Table 9, and its days replace
        one another's export instead of stacking up."""
        from repro.evaluation.timeseries import precision_over_time

        methods = ["Vote", "AccuSim", "AccuSimAttr", "AccuCopy"]
        serial = precision_over_time(stock.series, stock.gold_by_day, methods)
        with SolveScheduler(workers=WORKERS) as scheduler:
            parallel = precision_over_time(
                stock.series, stock.gold_by_day, methods, scheduler=scheduler
            )
            assert len(scheduler._registrations) == 1
        for name in methods:
            assert parallel[name].days == serial[name].days, name
            assert parallel[name].precisions == serial[name].precisions, name
        assert serial["Vote"].days == stock.series.days

    def test_round_cap_reports_unconverged_on_every_path(self, stock):
        """A solve that hits ``max_rounds`` says so — ``converged is False``
        and ``rounds == max_rounds`` — from ``run``, from stream days and
        from workers, with the same numbers as ``run`` on a cold problem."""
        from repro.fusion.base import FusionProblem
        from repro.streaming import StreamRunner

        methods = ["PooledInvest", "Invest"]
        kwargs = {name: {"max_rounds": 3} for name in methods}
        days = list(stock.series)[:2]
        runner = StreamRunner(methods, kwargs)
        steps = [runner.push(day) for day in days]
        cold = FusionProblem(days[0])
        with SolveScheduler(workers=2) as two_workers:
            outcomes = solve_methods(
                cold, methods, scheduler=two_workers, method_kwargs=kwargs
            )
        for name, outcome in zip(methods, outcomes):
            run = make_method(name, **kwargs[name]).run(cold)
            worker = outcome.result
            results = [run, worker] + [step.results[name] for step in steps]
            if name == "PooledInvest":
                for result in results:
                    assert result.converged is False
                    assert result.rounds == 3
            # A cold problem, a cold first stream day and a worker solve
            # are one solve.
            for other in (worker, steps[0].results[name]):
                assert other.selected == run.selected, name
                assert other.trust == run.trust, name
                assert other.attr_trust == run.attr_trust, name
                assert (other.rounds, other.converged) == (
                    run.rounds, run.converged
                ), name
        assert steps[1].results["PooledInvest"].extras["warm_started"]

    def test_serial_fallback_is_the_same_code_path(self, problem):
        outcomes = solve_methods(problem, ["AccuPr"])
        reference = make_method("AccuPr").run(problem)
        assert outcomes[0].result.selected == reference.selected
        assert outcomes[0].result.trust == reference.trust


_HEADER = re.compile(r"^== (\S+) \(scale=\w+, [^)]*\) ==$")
_FIG12_ROW = re.compile(r"^(\S+)\s+\d+\.\d+\s+(\S+)\s+(\S+)$")


def _untimed(report):
    """An ``experiments all`` report without wall-clock content: the header
    timings, and Figure 12's runtime column with the row order it sets."""
    lines, runtime_rows = [], []
    section = None
    for line in report.splitlines():
        header = _HEADER.match(line)
        if header:
            section = header.group(1)
            lines.append(section)
            continue
        row = _FIG12_ROW.match(line) if section == "figure12" else None
        if row:
            runtime_rows.append(" ".join(row.groups()))
        else:
            lines.append(line)
    return lines, sorted(runtime_rows)


class TestOnePool:
    def test_reproduction_starts_one_pool(self, monkeypatch, capsys):
        """Every experiment, Table 9's days included, solves on the
        context's one pool, and reports what the serial run reports."""
        import concurrent.futures

        from repro.experiments.runner import main

        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        assert main(["all", "--scale", "tiny", "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert pools == []
        assert main(["all", "--scale", "tiny", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert len(pools) == 1
        assert _untimed(parallel) == _untimed(serial)


class TestViewOnlyExport:
    """The packer under every problem export: view columns, read-only."""

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

    @pytest.mark.parametrize(
        "shape", ["full", "restricted", "copy", "delta-day"]
    )
    def test_problem_export_round_trips_bitwise(
        self, stock, problem, tmp_path, shape
    ):
        """A worker's rehydrated problem is the exported one, array for array."""
        import numpy as np

        from repro.core.delta import SeriesCompiler
        from repro.datagen import perturbed_claim_stream
        from repro.parallel import _AttachedProblem, _export_problem
        from tests.helpers import PROBLEM_ARRAYS

        methods = ["Vote", "AccuSim"]
        if shape == "restricted":
            problem = problem.restrict_sources(
                problem.sources[: len(problem.sources) // 2]
            )
        elif shape == "copy":
            methods = ["AccuCopy"]
        elif shape == "delta-day":
            # A day after retractions: a union-store view with a claim mask.
            stream = perturbed_claim_stream(stock.snapshot, 1, churn=0.02, seed=3)
            compiler = SeriesCompiler()
            compiler.ingest(stream.base)
            problem = compiler.apply_delta(stream.deltas[0]).problem()
            assert stream.deltas[0].retracted
            assert not problem._claim_mask.all()
        bundle, descriptor = _export_problem(
            problem, stock.gold, str(tmp_path), shape, 1
        )
        try:
            attached = _AttachedProblem(descriptor)
            try:
                ours = attached.problem
                for name in PROBLEM_ARRAYS:
                    assert np.array_equal(
                        getattr(ours, name), getattr(problem, name)
                    ), name
                assert np.array_equal(ours._source_codes, problem._source_codes)
                assert (ours._claim_mask is None) == (problem._claim_mask is None)
                if problem._claim_mask is not None:
                    assert np.array_equal(ours._claim_mask, problem._claim_mask)
                assert ours.items == problem.items
                assert ours.sources == problem.sources
                assert ours._view.values == problem._view.values
                assert attached.gold.values == stock.gold.values
                if shape == "copy":
                    ours_copy = ours.copy_structures
                    base_copy = problem.copy_structures
                    assert np.array_equal(ours_copy.same, base_copy.same)
                    assert np.array_equal(ours_copy.shared, base_copy.shared)
                for name in methods:
                    result = make_method(name).run(ours)
                    reference = make_method(name).run(problem)
                    assert result.selected == reference.selected, name
                    assert result.trust == reference.trust, name
                    assert result.rounds == reference.rounds, name
            finally:
                attached.close()
        finally:
            bundle.close()
            bundle.unlink()


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

    def test_reregistering_with_gold_upgrades_the_export(self, problem, stock):
        """A gold standard supplied later must reach the workers (re-export)."""
        scheduler = SolveScheduler(workers=2)
        try:
            key = scheduler.register("upg", problem)
            first = self._segments(scheduler)
            unscored = scheduler.run([
                SolveJob(
                    problem=key, calls=[MethodCall("Vote")],
                    subsets=[list(problem.sources)],
                )
            ])[0]
            assert unscored.sweep[0][0].precision is None  # no gold yet
            scheduler.register("upg", problem, gold=stock.gold)
            second = self._segments(scheduler)
            assert first != second  # upgraded in place, old segment gone
            assert not any(_attachable(s) for s in first)
            job = SolveJob(
                problem=key, calls=[MethodCall("Vote")],
                subsets=[list(problem.sources)],
            )
            assert scheduler.run([job])[0].sweep[0][0].precision is not None
            # Same problem, nothing new: free, no re-export.
            scheduler.register("upg", problem, gold=stock.gold)
            assert self._segments(scheduler) == second
        finally:
            scheduler.close()
