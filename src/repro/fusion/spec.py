"""The fixed point every fusion method solves.

Section 4 casts all sixteen methods as one iteration that alternates value
votes and source trust.  :func:`run_fixed_point` is that loop, driven by a
:class:`~repro.fusion.base.FusionMethod`'s own vote and trust kernels;
every solve goes through it:

* :meth:`FusionMethod.run` — the one cold solve: the method's initial
  state, this loop, then the packaged :class:`FusionResult`;
* :class:`~repro.streaming.StreamRunner` — a day of a stream, warm-started
  from the trust it carried over from the previous day;
* the restriction sweep (:mod:`repro.fusion.batch`) and the scheduler's
  workers (:mod:`repro.parallel`), which keep the outcome in array form.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import FusionError
from repro.fusion.base import FusionMethod, FusionProblem

State = Dict[str, np.ndarray]


class KernelProfiler:
    """Accumulates wall-clock per named solver phase (``--profile`` bench).

    Passed into :func:`run_fixed_point`, which attributes each round to its
    four phases (votes / argmax / trust_update / convergence), so a solve's
    time is attributable per kernel.
    """

    __slots__ = ("seconds", "calls")

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, name: str, elapsed: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1

    def report(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in sorted(self.seconds)
        }


def run_fixed_point(
    method: FusionMethod,
    problem: FusionProblem,
    state: State,
    freeze_trust: bool = False,
    profiler: Optional[KernelProfiler] = None,
) -> Tuple[np.ndarray, int, bool]:
    """Drive ``method``'s vote/trust kernels to a fixed point on ``problem``.

    Mutates ``state`` in place and returns ``(selected, rounds,
    converged)``.  Callers that warm-start overwrite ``state["trust"]``
    before calling.
    """
    rounds = 0
    converged = False
    selected = None
    profiled = profiler is not None
    t0 = time.perf_counter() if profiled else 0.0
    for rounds in range(1, method.max_rounds + 1):
        scores = method._votes(problem, state)
        if profiled:
            t1 = time.perf_counter()
            profiler.add("votes", t1 - t0)
            t0 = t1
        selected = problem.argmax_per_item(scores)
        if profiled:
            t1 = time.perf_counter()
            profiler.add("argmax", t1 - t0)
            t0 = t1
        if freeze_trust:
            converged = True
            break
        trust = state["trust"]
        new_trust = method._update_trust(problem, state, scores, selected)
        if profiled:
            t1 = time.perf_counter()
            profiler.add("trust_update", t1 - t0)
            t0 = t1
        if new_trust.size:
            # Fused convergence norm: |new - old| reduced in one scratch
            # buffer instead of two fresh temporaries per round.
            diff = problem.scratch("conv_delta", new_trust.shape)
            np.subtract(new_trust, trust, out=diff)
            np.abs(diff, out=diff)
            delta = float(diff.max())
        else:
            delta = 0.0
        state["trust"] = new_trust
        if profiled:
            t1 = time.perf_counter()
            profiler.add("convergence", t1 - t0)
            t0 = t1
        if delta < method.tolerance:
            converged = True
            break
    if selected is None:  # pragma: no cover - max_rounds >= 1 always
        raise FusionError("fusion produced no selection")
    return selected, rounds, converged
