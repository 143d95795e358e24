"""The per-kernel solve profile (``run_bench.py --profile``).

A :class:`KernelProfiler` attached to :func:`run_fixed_point` splits every
round into its four phases and must only observe: the profiled solve is
bit-identical to the plain one.  Both hold for every registered method on
both domains.
"""

import numpy as np
import pytest

from repro.fusion.registry import METHOD_NAMES, make_method
from repro.fusion.spec import KernelProfiler, run_fixed_point

PHASES = {"votes", "argmax", "trust_update", "convergence"}
DOMAINS = ("stock", "flight")


def _solve(name, problem, profiler=None):
    method = make_method(name)
    state = method._initial_state(problem, None)
    selected, rounds, converged = run_fixed_point(
        method, problem, state, profiler=profiler
    )
    # Copies: the kernels may hand back the problem's scratch buffers,
    # which the next solve on the same problem overwrites.
    return method, selected.copy(), state["trust"].copy(), rounds, converged


@pytest.fixture(params=DOMAINS)
def problem(request):
    return request.getfixturevalue(f"{request.param}_problem")


@pytest.mark.parametrize("name", METHOD_NAMES)
class TestEveryMethodProfiled:
    def test_reports_the_four_phases_once_per_round(self, problem, name):
        profiler = KernelProfiler()
        method, _, _, rounds, converged = _solve(name, problem, profiler)
        assert converged or rounds == method.max_rounds
        report = profiler.report()
        assert set(report) == PHASES
        assert profiler.calls["votes"] == rounds
        for phase in PHASES:
            assert report[phase]["calls"] == rounds
            assert report[phase]["seconds"] >= 0.0

    def test_profiled_solve_is_bit_identical(self, problem, name):
        _, ref_sel, ref_trust, ref_rounds, ref_conv = _solve(name, problem)
        _, sel, trust, rounds, conv = _solve(name, problem, KernelProfiler())
        assert np.array_equal(sel, ref_sel)
        assert trust.tobytes() == ref_trust.tobytes()
        assert (rounds, conv) == (ref_rounds, ref_conv)


# The sweep above must cover both ways a solve ends: one method that
# converges and one that runs to the round cap.
@pytest.mark.parametrize(
    "name, converges", [("AccuPr", True), ("PooledInvest", False)]
)
def test_profiled_solve_ends_as_expected(stock_problem, name, converges):
    profiler = KernelProfiler()
    method, _, _, rounds, converged = _solve(name, stock_problem, profiler)
    assert converged is converges
    if not converges:
        assert rounds == method.max_rounds
    assert profiler.calls["votes"] == rounds
