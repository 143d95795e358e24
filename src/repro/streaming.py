"""Multi-method streaming over daily snapshots or claim deltas.

One :class:`StreamRunner` owns a single :class:`~repro.core.delta.SeriesCompiler`
and one :class:`~repro.fusion.spec.FusionSession` per method, so each day is
diff-compiled **once** and every method solves on the shared problem — the
streaming analogue of the one-`FusionProblem`-many-methods pattern the
experiment tables use.  Copy-structure tracking is switched on automatically
when any requested method runs copy detection.

Feed it full snapshots (:meth:`StreamRunner.push`) or explicit
:class:`~repro.core.delta.ClaimDelta` change sets (:meth:`StreamRunner.push_delta`);
either way each step returns the per-method :class:`FusionResult` plus the
day's compilation statistics.  A single snapshot is a one-day stream.

Every day is one solve per method over all of the day's claims: each
source's trust and copy evidence come from every item it provides, as in
the paper's methods, so the stream's answer is the snapshot path's answer.

A runner never owns a worker pool.  Given a parallel
:class:`~repro.parallel.SolveScheduler` (the experiment context's), it fans
each day's methods out across it; otherwise the sessions solve inline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.dataset import Dataset
from repro.core.delta import (
    ClaimDelta,
    DayCompilation,
    DayStats,
    SeriesCompiler,
)
from repro.errors import FusionError
from repro.fusion.base import FusionResult
from repro.fusion.registry import make_method
from repro.fusion.spec import FusionSession

if TYPE_CHECKING:
    from repro.parallel import SolveScheduler


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
    """Sessions for several methods advancing over one shared compiler.

    Given a parallel ``scheduler`` and at least two methods, the method
    solves of each day run concurrently: the parent diff-compiles the day
    once (days stay sequential — warm starts need day ``d-1`` before day
    ``d``), registers the day's problem under the one ``"stream-day"`` key
    (so runners sharing a scheduler replace each other's export rather than
    stack them), and ships each worker its session's carried trust.
    Workers return raw trust/selection arrays and the owning sessions
    absorb them, so session state — and every number — is identical to the
    inline path.  The scheduler's owner closes it; the runner never does.
    """

    def __init__(
        self,
        method_names: Sequence[str],
        method_kwargs: Optional[Dict[str, dict]] = None,
        *,
        warm_start: bool = True,
        scheduler: Optional[SolveScheduler] = None,
    ):
        self.method_names = list(method_names)
        self.method_kwargs = {
            name: dict((method_kwargs or {}).get(name, {}))
            for name in self.method_names
        }
        self.sessions: Dict[str, FusionSession] = {
            name: FusionSession(
                make_method(name, **self.method_kwargs[name]),
                warm_start=warm_start,
            )
            for name in self.method_names
        }
        # The session spec is the single source of truth for whether a
        # method runs copy detection (the registry's `copying` column is
        # Table 6 rendering data).
        self._with_copy = any(
            session.spec.uses_copy_detection
            for session in self.sessions.values()
        )
        self.compiler = SeriesCompiler(track_copy_structures=self._with_copy)
        self.scheduler = scheduler
        self.steps: List[StreamStep] = []

    # ---------------------------------------------------------------- stepping
    def push(self, dataset: Dataset) -> StreamStep:
        """Ingest a full daily snapshot and advance every session."""
        started = time.perf_counter()
        return self._step(self.compiler.ingest(dataset), started)

    def push_delta(self, delta: ClaimDelta) -> StreamStep:
        """Apply an explicit claim delta and advance every session."""
        started = time.perf_counter()
        return self._step(self.compiler.apply_delta(delta), started)

    def _step(self, day: DayCompilation, started: float) -> StreamStep:
        """Solve every method on one compiled day."""
        if not day.stats.n_active_claims:
            raise FusionError(f"day {day.day!r} holds no active claims")
        problem = day.problem()
        compile_seconds = time.perf_counter() - started
        scheduler = self.scheduler
        results: Dict[str, FusionResult] = {}
        if (
            scheduler is None
            or not scheduler.parallel
            or len(self.method_names) < 2
        ):
            for name in self.method_names:
                results[name] = self.sessions[name].step(problem, day=day.day)
        else:
            from repro.parallel import MethodCall, SolveJob

            key = scheduler.register(
                "stream-day", problem, with_copy=self._with_copy
            )
            warm = {
                name: self.sessions[name].resume_trust(problem)
                for name in self.method_names
            }
            jobs = [
                SolveJob(
                    problem=key,
                    calls=[
                        MethodCall(
                            name,
                            kwargs=self.method_kwargs[name],
                            warm_trust=warm[name],
                        )
                    ],
                    raw=True,
                )
                for name in self.method_names
            ]
            for name, outcome in zip(self.method_names, scheduler.run(jobs)):
                call = outcome.calls[0]
                results[name] = self.sessions[name].absorb_step(
                    problem,
                    {"trust": call.trust},
                    call.selected,
                    call.rounds,
                    call.converged,
                    call.runtime_seconds,
                    day=day.day,
                    warmed=warm[name] is not None,
                )
        for result in results.values():
            result.extras["compile"] = day.stats
        step = StreamStep(
            day=day.day,
            results=results,
            stats=day.stats,
            compile_seconds=compile_seconds,
            solve_seconds={
                name: result.runtime_seconds for name, result in results.items()
            },
        )
        self.steps.append(step)
        return step

    @property
    def days(self) -> List[str]:
        return [step.day for step in self.steps]
