"""Numpy engine versus native engine: proof of equivalence.

The fused fixed-point programs in :mod:`repro.fusion.native` must change
the solver's speed, never its output.  Every test here forces the native
dispatch path (``native.FORCE``) so the suite is meaningful even without
numba — the kernels then run interpreted, executing the identical
arithmetic the JIT compiles.  The numba CI leg re-runs this file with
numba installed, exercising the compiled programs themselves.

The exactness contract under test:

* methods in :data:`native.EXACT_METHODS` reproduce the numpy trust
  bit-for-bit (their kernels accumulate in the same order numpy's
  ``bincount``/``add.at`` do);
* every other native program guarantees identical selections, rounds and
  convergence, with trust within ``TRUST_ATOL`` (fused multiply-adds may
  differ from numpy's pairwise reductions in the last ulps);
* methods without a native program (AccuCopy, any subclass of a
  registered class) fall through to the numpy loop unchanged.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import FusionError
from repro.fusion import native
from repro.fusion.base import FusionProblem, resolve_engine
from repro.fusion.batch import RestrictionSweep
from repro.fusion.ir import _minmax
from repro.fusion.registry import METHOD_NAMES, make_method
from repro.fusion.spec import KernelProfiler, run_fixed_point
from repro.streaming import StreamRunner

DOMAINS = ("stock", "flight")
#: The tolerance-tier contract.  Observed differences on the tiny
#: collections are <= ~5e-15; the contract leaves headroom for larger
#: inputs where reduction-order effects accumulate.
TRUST_ATOL = 1e-9


@pytest.fixture(autouse=True)
def forced_native(monkeypatch):
    """Run the native dispatch path even without numba (interpreted)."""
    monkeypatch.setattr(native, "FORCE", True)
    monkeypatch.setattr(native, "_WARNED", False)


@pytest.fixture(scope="module", params=DOMAINS)
def engine_pair(request):
    collection = request.getfixturevalue(f"{request.param}_collection")
    snapshot = collection.snapshot
    return collection, FusionProblem(snapshot), FusionProblem(snapshot)


@pytest.mark.parametrize("method_name", METHOD_NAMES)
class TestEveryMethodEquivalent:
    def test_native_matches_numpy(self, engine_pair, method_name):
        _, numpy_problem, native_problem = engine_pair
        ref = make_method(method_name, engine="numpy").run(numpy_problem)
        nat = make_method(method_name, engine="native").run(native_problem)
        assert nat.selected == ref.selected
        assert nat.rounds == ref.rounds
        assert nat.converged == ref.converged
        if method_name in native.EXACT_METHODS:
            assert nat.trust == ref.trust  # bit-identical tier
        else:
            for source, value in ref.trust.items():
                assert nat.trust[source] == pytest.approx(
                    value, abs=TRUST_ATOL
                )

    def test_dispatch_matches_contract(self, engine_pair, method_name):
        """Fused methods run the native round; the rest run the numpy loop."""
        _, _, native_problem = engine_pair
        method = make_method(method_name, engine="native")
        state = method._initial_state(native_problem, None)
        profiler = KernelProfiler()
        run_fixed_point(method, native_problem, state, profiler=profiler)
        report = profiler.report()
        if method_name in native.native_method_names():
            assert "native_round" in report
            assert "votes" not in report
        else:
            assert "native_round" not in report
            assert "votes" in report


class TestKernelPrimitives:
    def test_argmax_first_max_wins(self):
        item_start = np.array([0, 3, 5, 8], dtype=np.int64)
        scores = np.array(
            [1.0, 3.0, 3.0, np.nan, 2.0, -1.0, -1.0, -5.0], dtype=np.float64
        )
        selected = np.empty(3, dtype=np.int64)
        native._argmax_per_item(scores, item_start, selected)
        # Ties pick the first index; NaN propagates like np.maximum and
        # then matches itself first (numpy argmax behaviour).
        assert selected.tolist() == [1, 3, 5]

    def test_argmax_matches_problem_kernel(self, stock_problem):
        rng = np.random.default_rng(11)
        selected = np.empty(stock_problem.n_items, dtype=np.int64)
        for _ in range(5):
            scores = rng.normal(size=stock_problem.n_clusters)
            native._argmax_per_item(
                scores, stock_problem.item_start, selected
            )
            assert np.array_equal(
                selected, stock_problem.argmax_per_item(scores)
            )

    def test_max_abs_diff_matches_numpy(self):
        rng = np.random.default_rng(13)
        new = rng.normal(size=257)
        old = rng.normal(size=257)
        assert native._max_abs_diff(new, old) == float(
            np.abs(new - old).max()
        )

    def test_minmax_matches_ir_kernel(self):
        rng = np.random.default_rng(17)
        values = rng.normal(size=64)
        expected = _minmax(values.copy())
        native._minmax_inplace(values)
        np.testing.assert_array_equal(values, expected)

    def test_minmax_constant_input_clips(self):
        values = np.array([1.7, 1.7, 1.7])
        expected = _minmax(values.copy())
        native._minmax_inplace(values)
        np.testing.assert_array_equal(values, expected)


class TestEngineResolution:
    def test_unknown_engine_rejected(self):
        with pytest.raises(FusionError, match="unknown execution engine"):
            resolve_engine("gpu")

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(None) == "numpy"

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "native")
        assert resolve_engine(None) == "native"
        assert make_method("Vote").engine == "native"

    def test_explicit_engine_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "native")
        assert resolve_engine("numpy") == "numpy"
        assert make_method("Vote", engine="numpy").engine == "numpy"

    def test_env_var_rejected_like_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "cuda")
        with pytest.raises(FusionError, match="unknown execution engine"):
            resolve_engine(None)


class TestFallbackWithoutNumba:
    def test_single_warning_then_numpy_results(self, stock_problem,
                                               monkeypatch):
        if native.HAVE_NUMBA:
            pytest.skip("numba installed: the fallback path is unreachable")
        monkeypatch.setattr(native, "FORCE", False)
        monkeypatch.setattr(native, "_WARNED", False)
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            method = make_method("AccuSim", engine="native")
        assert method.engine == "numpy"
        # Warned once per process: the second request resolves silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = make_method("TruthFinder", engine="native")
        assert second.engine == "numpy"
        ref = make_method("AccuSim").run(stock_problem)
        out = method.run(stock_problem)
        assert out.selected == ref.selected
        assert out.trust == ref.trust


class TestWarmStreamsEquivalent:
    def test_streamed_days_match(self, stock_collection):
        from repro.datagen import perturbed_claim_stream

        stream = perturbed_claim_stream(
            stock_collection.snapshot, 2, churn=0.01, seed=5
        )
        per_engine = {}
        for engine in ("numpy", "native"):
            runner = StreamRunner(
                ["AccuPr"], {"AccuPr": {"engine": engine}}, warm_start=True
            )
            days = [runner.push(stream.base)]
            days += [runner.push(snap) for snap in stream.snapshots]
            per_engine[engine] = [day.results["AccuPr"] for day in days]
        for ref, nat in zip(per_engine["numpy"], per_engine["native"]):
            assert nat.selected == ref.selected
            assert nat.rounds == ref.rounds
            assert nat.converged == ref.converged
            for source, value in ref.trust.items():
                assert nat.trust[source] == pytest.approx(
                    value, abs=TRUST_ATOL
                )


class TestBatchedSweepNative:
    def test_native_restrictions_match_numpy_batch(self, stock_collection):
        problem = FusionProblem(stock_collection.snapshot)
        order = list(problem.sources)
        subsets = [order[:4], order[:9], order[:16]]
        ref = RestrictionSweep(problem, subsets).solve(
            make_method("AccuSim", engine="numpy")
        )
        nat = RestrictionSweep(problem, subsets).solve(
            make_method("AccuSim", engine="native")
        )
        for numpy_out, native_out in zip(ref, nat):
            assert native_out.sources == numpy_out.sources
            assert np.array_equal(
                native_out.selected_local, numpy_out.selected_local
            )
            assert native_out.rounds == numpy_out.rounds
            assert native_out.trust_array == pytest.approx(
                numpy_out.trust_array, abs=TRUST_ATOL
            )
