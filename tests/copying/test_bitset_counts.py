"""Copy detection's popcount pair counts and AccuCopy's detection reuse.

``FusionProblem.copy_structures`` and ``_overlap_counts`` count source
pairs' shared clusters and items with popcounts over packed bitsets; they
must equal the sparse products ``M @ M.T`` they replace, exactly, on every
kind of problem AccuCopy solves.  AccuCopy skips detection when a round's
selection equals the one it last detected on; its solves must stay
bit-identical to detecting every round.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.copying.detection import (
    _near_true_clusters,
    _overlap_counts,
    detect_copying,
)
from repro.core.delta import SeriesCompiler
from repro.datagen import perturbed_claim_stream
from repro.experiments.context import get_context
from repro.fusion import copy_aware
from repro.fusion.base import bit_rows, pair_counts
from repro.fusion.copy_aware import AccuCopy
from repro.fusion.spec import run_fixed_point
from repro.streaming import StreamRunner

CASES = [
    (scale, domain, kind)
    for scale in ("tiny", "small")
    for domain in ("stock", "flight")
    for kind in ("snapshot", "delta", "restricted")
]


def _problem(scale, domain, kind):
    context = get_context(scale)
    if kind == "snapshot":
        return context.problem(domain)
    if kind == "restricted":
        problem = context.problem(domain)
        return problem.restrict_sources(problem.sources[::2])
    # The problem StreamRunner solves on a delta day: the compiler's splice.
    stream = perturbed_claim_stream(
        context.collection(domain).snapshot, 2, churn=0.01, seed=5
    )
    compiler = SeriesCompiler()
    compiler.ingest(stream.base)
    for delta in stream.deltas:
        day = compiler.apply_delta(delta)
    return day.problem()


def _incidence(problem, columns, width):
    return sp.csr_matrix(
        (np.ones(problem.n_claims), (problem.claim_source, columns)),
        shape=(problem.n_sources, width),
    )


def _vote_selection(problem):
    return problem.argmax_per_item(problem.cluster_support.astype(float))


def _accucopy_selection(problem):
    method = AccuCopy()
    state = method._initial_state(problem, None)
    return run_fixed_point(method, problem, state)[0]


class TestPairCounts:
    def test_matches_the_dense_product_on_random_bits(self):
        rng = np.random.default_rng(3)
        for n_rows, n_bits in ((1, 1), (5, 64), (7, 65), (40, 1000)):
            dense = rng.random((n_rows, n_bits)) < 0.3
            rows, cols = np.nonzero(dense)
            bits = bit_rows(n_rows, n_bits, rows, cols)
            assert bits.dtype == np.uint64
            assert bits.shape == (n_rows, -(-n_bits // 64))
            expected = dense.astype(np.int64) @ dense.T.astype(np.int64)
            counts = pair_counts(bits)
            assert counts.dtype == np.float64
            assert np.array_equal(counts, expected)

    def test_blocks_cover_every_row(self, monkeypatch):
        from repro.fusion import base

        rng = np.random.default_rng(4)
        dense = rng.random((9, 300)) < 0.5
        bits = bit_rows(9, 300, *np.nonzero(dense))
        whole = pair_counts(bits)
        monkeypatch.setattr(base, "PAIR_BLOCK_WORDS", 1)  # one row per block
        assert np.array_equal(pair_counts(bits), whole)


@pytest.mark.parametrize("scale,domain,kind", CASES)
@pytest.mark.parametrize("similarity_aware", [False, True])
def test_counts_equal_the_sparse_products(scale, domain, kind, similarity_aware):
    problem = _problem(scale, domain, kind)
    membership = _incidence(problem, problem.claim_cluster, problem.n_clusters)
    items = _incidence(problem, problem.claim_item, problem.n_items)
    structures = problem.copy_structures
    assert np.array_equal(structures.same, (membership @ membership.T).toarray())
    assert np.array_equal(structures.shared, (items @ items.T).toarray())

    # The vote selection, and AccuCopy's own: two different true masks.
    for selected in (_vote_selection(problem), _accucopy_selection(problem)):
        near = (
            _near_true_clusters(problem, selected) if similarity_aware else None
        )
        true_mask = np.zeros(problem.n_clusters, dtype=bool)
        true_mask[selected] = True
        if near is not None:
            true_mask |= near
        member_true = membership[:, true_mask]
        kt, kf, kd = _overlap_counts(problem, selected, near)
        assert np.array_equal(kt, (member_true @ member_true.T).toarray())
        assert np.array_equal(kf, structures.same - kt)
        assert np.array_equal(kd, structures.shared - structures.same)


class _EveryRound(AccuCopy):
    """AccuCopy detecting on every round, as before detection reuse."""

    def _update_trust(self, problem, state, scores, selected):
        state.pop("detected_on", None)
        return super()._update_trust(problem, state, scores, selected)


def _same_result(a, b):
    return (
        a.selected == b.selected
        and a.trust == b.trust
        and a.rounds == b.rounds
        and a.converged == b.converged
    )


@pytest.mark.parametrize("scale,domain,kind", CASES)
@pytest.mark.parametrize("similarity_aware", [False, True])
def test_reuse_is_bit_identical(scale, domain, kind, similarity_aware):
    problem = _problem(scale, domain, kind)
    reused = AccuCopy(similarity_aware_detection=similarity_aware).run(problem)
    every = _EveryRound(similarity_aware_detection=similarity_aware).run(problem)
    assert _same_result(reused, every)


@pytest.mark.parametrize("domain", ["stock", "flight"])
def test_reuse_is_bit_identical_on_a_warm_stream(domain):
    stream = perturbed_claim_stream(
        get_context("tiny").collection(domain).snapshot, 3, churn=0.01, seed=9
    )
    reused = StreamRunner(["AccuCopy"])
    every = StreamRunner(["AccuCopy"])
    every.methods["AccuCopy"] = _EveryRound()
    assert _same_result(
        reused.push(stream.base).results["AccuCopy"],
        every.push(stream.base).results["AccuCopy"],
    )
    for delta in stream.deltas:
        assert _same_result(
            reused.push_delta(delta).results["AccuCopy"],
            every.push_delta(delta).results["AccuCopy"],
        )


class _Recording(AccuCopy):
    """AccuCopy that records every round's selection."""

    def __init__(self, rounds, **kwargs):
        super().__init__(**kwargs)
        self.rounds = rounds

    def _update_trust(self, problem, state, scores, selected):
        self.rounds.append(selected.copy())
        return super()._update_trust(problem, state, scores, selected)


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("domain", ["stock", "flight"])
def test_one_detection_per_distinct_consecutive_selection(
    scale, domain, monkeypatch
):
    detected = []

    def counting(problem, selected, *args, **kwargs):
        detected.append(selected.copy())
        return detect_copying(problem, selected, *args, **kwargs)

    monkeypatch.setattr(copy_aware, "detect_copying", counting)
    rounds = []
    _Recording(rounds).run(get_context(scale).problem(domain))
    runs = [rounds[0]] + [
        now for before, now in zip(rounds, rounds[1:])
        if not np.array_equal(before, now)
    ]
    assert len(detected) == len(runs)
    assert all(np.array_equal(a, b) for a, b in zip(detected, runs))
    assert len(detected) < len(rounds)  # the reuse actually skipped rounds
