"""Multi-method streaming over daily snapshots or claim deltas.

One :class:`StreamRunner` owns a single :class:`~repro.core.delta.SeriesCompiler`
and everything a stream carries from one day to the next: each method's
converged trust, and the source list it was solved over.  Each
day is diff-compiled **once** and every method solves on the shared
problem through the same :func:`~repro.fusion.spec.run_fixed_point` a
one-shot :meth:`~repro.fusion.base.FusionMethod.run` drives, warm-started
from the carried trust.  The runner keeps only that carried state and the
day labels (:attr:`StreamRunner.days`); each :class:`StreamStep` belongs to
the caller, so a long-running stream does not accumulate results.

Feed it full snapshots (:meth:`StreamRunner.push`) or explicit
:class:`~repro.core.delta.ClaimDelta` change sets (:meth:`StreamRunner.push_delta`);
either way each step returns the per-method :class:`FusionResult` plus the
day's compilation statistics.  A single snapshot is a one-day stream.

Every day is one solve per method over all of the day's claims: each
source's trust and copy evidence come from every item it provides, as in
the paper's methods, so the stream's answer is the snapshot path's answer.

Every solve runs inline, in the runner's process: days are sequential (a
warm start needs day ``d-1`` before day ``d``), and fanning one day's
methods out to workers measured slower than solving them in turn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import Dataset
from repro.core.delta import (
    ClaimDelta,
    DayCompilation,
    DayStats,
    SeriesCompiler,
)
from repro.fusion.base import FusionMethod, FusionProblem, FusionResult
from repro.fusion.registry import make_method
from repro.fusion.spec import State, run_fixed_point


@dataclass
class StreamStep:
    """One day's outcome across every method of the stream."""

    day: str
    results: Dict[str, FusionResult]
    stats: DayStats
    compile_seconds: float
    solve_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + sum(self.solve_seconds.values())


class StreamRunner:
    """Several methods advancing day by day over one shared compiler.

    With ``warm_start`` each day's fixed point resumes from the trust the
    method converged to the day before (rebased onto the day's sources);
    without it every day is a cold start, bit-identical to
    ``make_method(name).run`` on the day's problem.
    """

    def __init__(
        self,
        method_names: Sequence[str],
        method_kwargs: Optional[Dict[str, dict]] = None,
        *,
        warm_start: bool = True,
    ):
        self.method_names = list(method_names)
        self.methods: Dict[str, FusionMethod] = {
            name: make_method(name, **(method_kwargs or {}).get(name, {}))
            for name in self.method_names
        }
        self.compiler = SeriesCompiler()
        self.warm_start = warm_start
        #: Labels of the days pushed so far, in order.
        self.days: List[str] = []
        # What carries across days: each method's converged trust, over the
        # sources of the problem it was solved on.
        self._trust: Dict[str, np.ndarray] = {}
        self._sources: List[str] = []

    # ---------------------------------------------------------------- stepping
    def push(self, dataset: Dataset) -> StreamStep:
        """Ingest a full daily snapshot and advance every method."""
        started = time.perf_counter()
        return self._step(self.compiler.ingest(dataset), started)

    def push_delta(self, delta: ClaimDelta) -> StreamStep:
        """Apply an explicit claim delta and advance every method."""
        started = time.perf_counter()
        return self._step(self.compiler.apply_delta(delta), started)

    def _step(self, day: DayCompilation, started: float) -> StreamStep:
        """Solve every method on one compiled day."""
        problem = day.problem()
        compile_seconds = time.perf_counter() - started
        warmed = self.warm_start and bool(self.days)
        results = {
            name: self._solve(name, day, problem, warmed)
            for name in self.method_names
        }
        self._sources = list(problem.sources)
        self.days.append(day.day)
        return StreamStep(
            day=day.day,
            results=results,
            stats=day.stats,
            compile_seconds=compile_seconds,
            solve_seconds={
                name: result.runtime_seconds for name, result in results.items()
            },
        )

    def _start_state(
        self, name: str, problem: FusionProblem, warmed: bool
    ) -> State:
        """``name``'s state at the start of a day on ``problem``.

        Trust resumes from yesterday's fixed point when the day is warm;
        every other state entry (difficulty, independence, ...) is
        problem-shaped and starts fresh from the method's initial state.
        """
        state = self.methods[name]._initial_state(problem, None)
        if warmed:
            state["trust"] = self._rebased_trust(name, problem, state["trust"])
        return state

    def _rebased_trust(
        self, name: str, problem: FusionProblem, fresh: np.ndarray
    ) -> np.ndarray:
        """Map ``name``'s previous-day trust onto the new source universe.

        ``fresh`` is the method's initial trust for the new problem — it
        fixes the target shape (sources on axis 0, any per-attribute/-category
        axes after), so methods with non-standard trust shapes rebase too;
        sources whose carried rows no longer fit keep their fresh priors.
        """
        prev = self._trust[name]
        trust = np.array(fresh, dtype=np.float64, copy=True)
        for i, source_id in enumerate(self._sources):
            j = problem.source_index.get(source_id)
            if j is not None and prev[i].shape == trust[j].shape:
                trust[j] = prev[i]
        return trust

    def _solve(
        self, name: str, day: DayCompilation, problem: FusionProblem,
        warmed: bool,
    ) -> FusionResult:
        """Solve ``name`` on ``day``'s problem and carry its trust on."""
        method = self.methods[name]
        started = time.perf_counter()
        state = self._start_state(name, problem, warmed)
        selected, rounds, converged = run_fixed_point(method, problem, state)
        result = method._package(
            problem, state, selected, rounds, converged,
            time.perf_counter() - started,
        )
        result.extras["day"] = day.day
        result.extras["warm_started"] = warmed
        result.extras["compile"] = day.stats
        self._trust[name] = state["trust"]
        return result
