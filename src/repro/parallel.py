"""Parallel execution engine: shared-memory fusion workers and a solve scheduler.

The paper's headline experiments are embarrassingly parallel — sixteen
methods per snapshot (and per day in Table 9), one solve per source-prefix
in the Figure 9 sweep — but a compiled :class:`~repro.fusion.base.FusionProblem`
is megabytes of numpy arrays, and pickling it into every worker would cost
more than the solves.  This module is the layer in between:

* :class:`SolveScheduler` — takes a *plan* of :class:`SolveJob`\\ s against
  registered problems, dedupes shared compilations (one export per problem,
  not per job), publishes each problem's arrays **once** into
  ``multiprocessing.shared_memory`` (:mod:`repro.core.shm`) with the object
  tables (items, sources, values, attribute specs, gold) in a pickle
  sidecar loaded once per worker, and fans the jobs out to a persistent
  ``ProcessPoolExecutor``.  Workers rehydrate zero-copy problem views and
  solve on them through the one solver path —
  :func:`~repro.fusion.spec.run_fixed_point`, alone or inside the
  restriction sweep of :mod:`repro.fusion.batch` — and results are
  gathered in deterministic plan order.  Only the compiled arrays are
  exported: an attached problem builds its copy-detection overlap counts
  itself (:attr:`~repro.fusion.base.FusionProblem.copy_structures`), once,
  the first time a copy-aware method solves on it.  With
  ``workers <= 1`` — or on platforms without POSIX shared memory — the
  same job-execution code runs inline, so serial and parallel schedules
  are bit-identical by construction.
* Two job shapes cover the consumers: method calls (Tables 7, 8 and 9: a
  cold fixed point each, returned as the trust array and the selected
  cluster indices, which :func:`solve_methods` packages into a
  :class:`~repro.fusion.base.FusionResult` in the parent, exactly as
  :meth:`FusionMethod.run` would) and *sweeps* (Figure 9; each worker
  chunk compiles its restrictions once, solves every method on them and
  scores the raw selections against the registered gold standard).

One pool per process run: the experiment context
(:meth:`repro.experiments.context.ExperimentContext.scheduler`) is the only
place that builds a multi-worker scheduler.  Consumers — :func:`solve_methods`
and :func:`solve_sweep` — take that scheduler as an optional argument
(``None`` solves inline) and never start or stop a pool themselves.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.columnar import ColumnarView, CompiledClusters
from repro.core.gold import GoldStandard
from repro.core.shm import (
    AttachedBundle,
    BundleDescriptor,
    ViewBundle,
    shared_memory_available,
)
from repro.errors import FusionError
from repro.fusion.base import FusionProblem, FusionResult
from repro.fusion.batch import GoldScorer, RestrictionSweep
from repro.fusion.registry import make_method
from repro.fusion.spec import run_fixed_point

__all__ = [
    "MethodCall",
    "SolveJob",
    "CallOutcome",
    "JobOutcome",
    "SolveScheduler",
    "solve_methods",
    "solve_sweep",
]


# --------------------------------------------------------------------------
# Plan vocabulary
# --------------------------------------------------------------------------

@dataclass
class MethodCall:
    """One method invocation inside a job."""

    method: str
    kwargs: Dict[str, object] = field(default_factory=dict)
    trust_seed: Optional[Dict[str, float]] = None
    freeze_trust: bool = False


@dataclass
class SolveJob:
    """One schedulable unit: method calls against one registered problem.

    ``subsets`` turns the job into a sweep — every call runs on every
    subset through one :class:`repro.fusion.batch.RestrictionSweep`, and
    the outcomes carry trust arrays, rounds and, when the problem was
    registered with a gold standard, precision and recall.  Otherwise each
    call runs on the whole problem and returns its trust and selection
    arrays.
    """

    problem: str
    calls: List[MethodCall]
    subsets: Optional[List[List[str]]] = None


@dataclass
class CallOutcome:
    """Outcome of one method call on one (possibly restricted) problem."""

    method: str
    result: Optional[FusionResult] = None  # packaged by solve_methods
    trust: Optional[np.ndarray] = None
    selected: Optional[np.ndarray] = None  # cluster indices (call jobs)
    rounds: int = 0
    converged: bool = False
    runtime_seconds: float = 0.0
    precision: Optional[float] = None
    recall: Optional[float] = None
    empty: bool = False


@dataclass
class JobOutcome:
    """A job's outcomes, shaped like the job (calls, or subsets x calls)."""

    calls: Optional[List[CallOutcome]] = None
    sweep: Optional[List[List[CallOutcome]]] = None


# --------------------------------------------------------------------------
# Problem export / rehydration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemDescriptor:
    """Everything a worker needs to rehydrate a registered problem."""

    key: str
    generation: int
    bundle: BundleDescriptor
    sidecar: str
    has_mask: bool


def _export_view(
    view: ColumnarView,
    gold: Optional[GoldStandard],
    tmpdir: str,
    key: str,
    generation: int,
    extras: Dict[str, np.ndarray],
    tables: Dict[str, object],
) -> Tuple[ViewBundle, str]:
    """Pack the view columns plus ``extras`` into one shared segment.

    The object tables (items, sources, values, attribute specs, gold, plus
    ``tables``) go to a pickle sidecar; returns the bundle and its path.
    """
    bundle = ViewBundle.create_from_view(view, extras)
    sidecar = os.path.join(tmpdir, f"{key}.{generation}.pkl".replace(os.sep, "_"))
    payload = {
        "items": view.items,
        "sources": view.sources,
        "attr_names": view.attr_names,
        "attr_specs": view.attr_specs,
        "values": view.values,
        "gold": (gold.domain, dict(gold.values)) if gold is not None else None,
        **tables,
    }
    with open(sidecar, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return bundle, sidecar


def _export_problem(
    problem: FusionProblem, gold: Optional[GoldStandard], tmpdir: str,
    key: str, generation: int,
) -> Tuple[ViewBundle, ProblemDescriptor]:
    """Export the problem's view, then its compiled arrays in the same segment."""
    view = problem._view
    if view is None:
        raise FusionError("only columnar-compiled problems can be exported")
    arrays: Dict[str, np.ndarray] = {
        "attr_tol": problem._attr_tol,
        "source_codes": problem._source_codes,
        "p_item_index": problem._item_index,
        "p_item_start": problem.item_start,
        "p_cluster_item": problem.cluster_item,
        "p_cluster_value": problem._cluster_value_code,
        "p_cluster_support": problem.cluster_support,
        "p_claim_source": problem._source_codes[problem.claim_source],
        "p_claim_cluster": problem.claim_cluster,
        "p_claim_value": problem._claim_value_code,
        "p_claim_granularity": problem._claim_granularity,
    }
    has_mask = problem._claim_mask is not None
    if has_mask:
        arrays["claim_mask"] = problem._claim_mask
    bundle, sidecar = _export_view(
        view, gold, tmpdir, key, generation, arrays,
        {"problem_sources": list(problem.sources)},
    )
    descriptor = ProblemDescriptor(
        key=key,
        generation=generation,
        bundle=bundle.descriptor,
        sidecar=sidecar,
        has_mask=has_mask,
    )
    return bundle, descriptor


class _AttachedProblem:
    """Worker-side rehydrated problem plus the bundle keeping it alive."""

    def __init__(self, descriptor: ProblemDescriptor):
        self.generation = descriptor.generation
        self.bundle = AttachedBundle(descriptor.bundle)
        with open(descriptor.sidecar, "rb") as handle:
            payload = pickle.load(handle)
        arr = self.bundle.arrays
        view = ViewBundle.rebuild_view(self.bundle, payload)
        item_index = arr["p_item_index"]
        compiled = CompiledClusters(
            item_index=item_index,
            item_attr=view.item_attr[item_index],
            item_start=arr["p_item_start"],
            cluster_item=arr["p_cluster_item"],
            cluster_value=arr["p_cluster_value"],
            cluster_support=arr["p_cluster_support"],
            claim_source=arr["p_claim_source"],
            claim_cluster=arr["p_claim_cluster"],
            claim_value=arr["p_claim_value"],
            claim_granularity=arr["p_claim_granularity"],
        )
        self.problem = FusionProblem.from_compiled(
            view=view,
            compiled=compiled,
            sources=payload["problem_sources"],
            source_codes=arr["source_codes"],
            attr_tol=arr["attr_tol"],
            claim_mask=arr.get("claim_mask"),
        )
        self.gold: Optional[GoldStandard] = None
        if payload["gold"] is not None:
            domain, values = payload["gold"]
            self.gold = GoldStandard(domain=domain, values=values)

    def close(self) -> None:
        self.problem = None
        self.bundle.close()


#: Per-worker cache of attached problems, keyed by registration key.
_WORKER_PROBLEMS: Dict[str, _AttachedProblem] = {}


def _worker_execute(descriptor: ProblemDescriptor, job: SolveJob) -> JobOutcome:
    entry = _WORKER_PROBLEMS.get(descriptor.key)
    if entry is None or entry.generation != descriptor.generation:
        if entry is not None:
            entry.close()
        entry = _AttachedProblem(descriptor)
        _WORKER_PROBLEMS[descriptor.key] = entry
    return _execute_job(entry.problem, entry.gold, job)


# --------------------------------------------------------------------------
# Job execution (shared by workers and the serial fallback)
# --------------------------------------------------------------------------

def _run_call(problem: FusionProblem, call: MethodCall) -> CallOutcome:
    method = make_method(call.method, **call.kwargs)
    started = time.perf_counter()
    state = method._initial_state(problem, call.trust_seed)
    selected, rounds, converged = run_fixed_point(
        method, problem, state, call.freeze_trust
    )
    return CallOutcome(
        method=method.name,
        trust=state["trust"],
        selected=selected,
        rounds=rounds,
        converged=converged,
        runtime_seconds=time.perf_counter() - started,
    )


def _execute_sweep(
    problem: FusionProblem, gold: Optional[GoldStandard], job: SolveJob
) -> JobOutcome:
    # Restrictions are compiled once and shared by every method of the
    # sweep; solves stay in array form end to end (GoldScorer), never
    # materializing per-item dicts.
    sweep = RestrictionSweep(problem, job.subsets)
    scorer = GoldScorer(problem, gold) if gold is not None else None
    rows: List[List[CallOutcome]] = [[] for _ in job.subsets]
    for call in job.calls:
        method = make_method(call.method, **call.kwargs)
        for row, restriction in zip(rows, sweep.solve(method)):
            outcome = CallOutcome(method=call.method, empty=restriction.empty)
            if restriction.empty:
                outcome.recall = 0.0
                outcome.precision = 0.0
            else:
                outcome.rounds = restriction.rounds
                outcome.converged = restriction.converged
                outcome.trust = restriction.trust_array
                if scorer is not None:
                    outcome.precision, outcome.recall = scorer.score(
                        restriction.matcher, restriction.selected_local
                    )
            row.append(outcome)
    return JobOutcome(sweep=rows)


def _execute_job(
    problem: FusionProblem, gold: Optional[GoldStandard], job: SolveJob
) -> JobOutcome:
    if job.subsets is not None:
        return _execute_sweep(problem, gold, job)
    return JobOutcome(calls=[_run_call(problem, call) for call in job.calls])


# --------------------------------------------------------------------------
# The scheduler
# --------------------------------------------------------------------------

class _Registration:
    def __init__(self, problem, gold):
        self.problem = problem
        self.gold = gold
        self.bundle = None
        self.descriptor = None
        self.exported_gold = False


class SolveScheduler:
    """A planned solve scheduler over a persistent worker pool.

    ``workers <= 1`` (or missing platform shared memory) degrades to an
    inline serial executor running the exact same job code, so callers can
    thread a single scheduler through unconditionally.
    """

    def __init__(self, workers: int = 0):
        self.workers = int(workers) if workers else 0
        self._parallel = self.workers > 1 and shared_memory_available()
        self._registrations: Dict[str, _Registration] = {}
        self._pool = None
        self._tmpdir: Optional[str] = None

    # ------------------------------------------------------------ lifecycle
    @property
    def parallel(self) -> bool:
        return self._parallel

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down and release every shared segment."""
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - interpreter teardown
                pass
            self._pool = None
        for registration in self._registrations.values():
            if registration.bundle is not None:
                registration.bundle.close()
                registration.bundle.unlink()
        self._registrations.clear()
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
            self._tmpdir = None

    def __enter__(self) -> "SolveScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- registration
    def default_key(self, problem: FusionProblem) -> str:
        """The canonical key a problem registers under when none is given.

        Safe to key on identity: registrations hold a strong reference, so
        a registered problem's ``id`` cannot be recycled while it is live.
        """
        return f"p{id(problem):x}"

    def register(
        self,
        key: Optional[str],
        problem: FusionProblem,
        gold: Optional[GoldStandard] = None,
    ) -> str:
        """Publish a compiled problem under ``key`` (idempotent per object).

        Re-registering a key with a *different* problem object replaces the
        export (Table 9 reuses one key across days); re-registering the
        same object is free — this is how shared compilations are deduped
        across jobs and experiments.  A gold standard appearing for an
        exported problem re-exports it in place.
        """
        if key is None:
            key = self.default_key(problem)
        existing = self._registrations.get(key)
        if existing is not None and existing.problem is problem:
            if gold is not None and existing.gold is None:
                existing.gold = gold
            if (
                self._parallel
                and existing.descriptor is not None
                and existing.gold is not None
                and not existing.exported_gold
            ):
                self._reexport(key, existing)
            return key
        if not self._parallel:
            self._registrations[key] = _Registration(problem, gold)
            return key
        registration = _Registration(problem, gold)
        self._registrations[key] = registration
        self._reexport(key, registration, previous=existing)
        return key

    def _reexport(self, key, registration, previous=None):
        if self._tmpdir is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-sched-")
        generation = (
            previous.descriptor.generation + 1
            if previous is not None and previous.descriptor is not None
            else (registration.descriptor.generation + 1
                  if registration.descriptor is not None else 0)
        )
        if previous is not None and previous.bundle is not None:
            previous.bundle.close()
            previous.bundle.unlink()
        if registration.bundle is not None:
            registration.bundle.close()
            registration.bundle.unlink()
        registration.bundle, registration.descriptor = _export_problem(
            registration.problem, registration.gold, self._tmpdir,
            key, generation,
        )
        registration.exported_gold = registration.gold is not None

    # ------------------------------------------------------------- execution
    def run(self, jobs: Sequence[SolveJob]) -> List[JobOutcome]:
        """Execute a plan; outcomes come back in plan order."""
        for job in jobs:
            if job.problem not in self._registrations:
                raise FusionError(
                    f"problem {job.problem!r} is not registered with this scheduler"
                )
        if not self._parallel:
            outcomes = []
            for job in jobs:
                registration = self._registrations[job.problem]
                outcomes.append(
                    _execute_job(registration.problem, registration.gold, job)
                )
            return outcomes
        pool = self._ensure_pool()
        futures = [
            pool.submit(
                _worker_execute, self._registrations[job.problem].descriptor, job
            )
            for job in jobs
        ]
        return [future.result() for future in futures]


# --------------------------------------------------------------------------
# Convenience plans
# --------------------------------------------------------------------------

def _normalize_calls(
    calls: Sequence[Union[str, MethodCall]],
    method_kwargs: Optional[Dict[str, dict]] = None,
) -> List[MethodCall]:
    return [
        call if isinstance(call, MethodCall)
        else MethodCall(call, kwargs=dict((method_kwargs or {}).get(call, {})))
        for call in calls
    ]


def solve_methods(
    problem: FusionProblem,
    calls: Sequence[Union[str, MethodCall]],
    *,
    gold: Optional[GoldStandard] = None,
    scheduler: Optional[SolveScheduler] = None,
    key: Optional[str] = None,
    method_kwargs: Optional[Dict[str, dict]] = None,
) -> List[CallOutcome]:
    """Run several method calls on one compiled problem.

    Outcomes come back in ``calls`` order, each with its
    :class:`~repro.fusion.base.FusionResult` — the one
    :meth:`FusionMethod.run` returns.  Each call is its own job: across a
    parallel ``scheduler``'s workers, or inline without one.  Either way
    the solve returns arrays and the result is packaged here, in the
    caller's process.
    """
    plan = _normalize_calls(calls, method_kwargs)
    sched = scheduler if scheduler is not None else SolveScheduler()
    key = sched.register(key, problem, gold=gold)
    jobs = [SolveJob(problem=key, calls=[call]) for call in plan]
    outcomes = [outcome.calls[0] for outcome in sched.run(jobs)]
    for call, outcome in zip(plan, outcomes):
        outcome.result = make_method(call.method, **call.kwargs)._package(
            problem, {"trust": outcome.trust}, outcome.selected,
            outcome.rounds, outcome.converged, outcome.runtime_seconds,
        )
    return outcomes


def solve_sweep(
    problem: FusionProblem,
    calls: Sequence[Union[str, MethodCall]],
    subsets: Sequence[Sequence[str]],
    *,
    gold: Optional[GoldStandard] = None,
    scheduler: Optional[SolveScheduler] = None,
    key: Optional[str] = None,
) -> List[List[CallOutcome]]:
    """Solve every (subset, call) pair; returns subset-major outcomes.

    Outcomes are raw (trust arrays, rounds) and carry precision and recall
    when ``gold`` is given.  With a parallel ``scheduler`` the subsets are
    strided across the worker chunks (a prefix sweep's small and large
    prefixes interleave, balancing the chunks); each chunk compiles its
    restrictions once for all of ``calls``.
    """
    plan = _normalize_calls(calls)
    subset_lists = [list(s) for s in subsets]
    sched = scheduler if scheduler is not None else SolveScheduler()
    key = sched.register(key, problem, gold=gold)
    if not sched.parallel or len(subset_lists) < 2:
        job = SolveJob(problem=key, calls=plan, subsets=subset_lists)
        return sched.run([job])[0].sweep
    n_chunks = min(sched.workers, len(subset_lists))
    chunk_indices = [
        list(range(k, len(subset_lists), n_chunks)) for k in range(n_chunks)
    ]
    jobs = [
        SolveJob(
            problem=key,
            calls=plan,
            subsets=[subset_lists[i] for i in indices],
        )
        for indices in chunk_indices
    ]
    outcomes = sched.run(jobs)
    rows: List[Optional[List[CallOutcome]]] = [None] * len(subset_lists)
    for indices, outcome in zip(chunk_indices, outcomes):
        for local, index in enumerate(indices):
            rows[index] = outcome.sweep[local]
    return rows  # type: ignore[return-value]
