"""Opt-in native execution engine for the fixed-point solver.

Every fusion method of the paper iterates the same two maps — votes from
trust, trust from votes — over the compiled flat arrays of
:class:`~repro.fusion.base.FusionProblem`.  PR 5 stripped the allocator out
of that loop; what remains is numpy kernel-launch overhead on many small
segment ops (``bincount`` / ``reduceat`` / scatter chains).  This module
fuses each method family's whole round — votes → argmax → trust update →
convergence norm — into one ``@njit`` kernel over the compiled arrays, so a
round is a single native call instead of a dozen ufunc dispatches.

Engine contract
---------------
* **Opt-in and optional.**  ``numba`` is imported behind a guard; when it is
  absent the kernels below are plain Python functions.  Requesting the
  native engine without numba degrades to the numpy engine with a single
  warning per process (see :func:`warn_unavailable`) — nothing else changes.
  Tests force the dispatch path without numba via :data:`FORCE`, which runs
  the identical kernels interpreted.
* **Bit-identity where the arithmetic allows it.**  The numpy kernels
  accumulate with ``np.bincount(weights=...)`` / ``np.add.at`` — sequential
  sums in input order — and the loops below accumulate in the same order, so
  methods whose rounds are pure arithmetic reproduce the numpy engine
  bit for bit: **Vote, Hub, AvgLog, 2-Estimates, 3-Estimates** (AvgLog's
  round-invariant ``log`` factor is precomputed with numpy).
* **Tolerance contract for transcendental kernels.**  Methods whose rounds
  evaluate ``exp`` / ``log`` / ``pow`` per round (**Invest, PooledInvest,
  Cosine, TruthFinder and the ACCU family**) may differ from numpy in the
  last ulp per call, which can compound across rounds: the contract —
  enforced by ``tests/fusion/test_native_equivalence.py`` — is *equal
  selections*, trust within a small absolute tolerance, and round counts
  that may differ by the convergence threshold landing on a different side.
* **Fallback methods.**  ``AccuCopy`` interleaves numpy copy detection
  (popcount pair counts, scipy-sparse weights) with the fixed point and
  has no native program; it (and any subclass of a registered method,
  e.g. the per-category extension) simply runs on the numpy engine.
  :func:`solve` returns ``None`` and the caller falls through — requesting
  ``engine="native"`` is always safe.
"""

from __future__ import annotations

import math
import time
import warnings
from typing import Callable, Dict, Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised on the numba CI leg
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def _njit(*args, **kwargs):
        """No-op decorator: without numba the kernels run interpreted."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


#: Tests set this to run the native dispatch path without numba installed
#: (the kernels execute interpreted — identical arithmetic, tiny inputs).
FORCE = False

_WARNED = False


def available() -> bool:
    """Whether the native engine can execute (numba present, or forced)."""
    return HAVE_NUMBA or FORCE


def warn_unavailable() -> None:
    """Warn — once per process — that native was requested without numba."""
    global _WARNED
    if not _WARNED:
        _WARNED = True
        warnings.warn(
            "native engine requested but numba is not installed; "
            "falling back to the numpy engine (identical results)",
            RuntimeWarning,
            stacklevel=3,
        )


# --------------------------------------------------------------------------
# Shared primitives.  Loops accumulate in input order, matching np.bincount
# and np.add.at; max/min reductions are order-insensitive.
# --------------------------------------------------------------------------
@_njit(cache=True)
def _argmax_per_item(scores, item_start, selected):
    """First index attaining each item's segment max (NaN wins, like numpy)."""
    for i in range(item_start.shape[0] - 1):
        s = item_start[i]
        e = item_start[i + 1]
        m = scores[s]
        for c in range(s + 1, e):
            v = scores[c]
            if v > m or v != v:  # np.maximum propagates NaN
                m = v
        for c in range(s, e):
            v = scores[c]
            if v != v or v == m:
                selected[i] = c
                break


@_njit(cache=True)
def _max_abs_diff(new, old):
    delta = 0.0
    for i in range(new.shape[0]):
        d = new[i] - old[i]
        if d < 0.0:
            d = -d
        if d > delta:
            delta = d
    return delta


@_njit(cache=True)
def _minmax_inplace(values):
    """Affine re-scale onto [0, 1] in place (clip when constant)."""
    lo = values[0]
    hi = values[0]
    for i in range(values.shape[0]):
        v = values[i]
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    if hi - lo < 1e-9:
        for i in range(values.shape[0]):
            v = values[i]
            if v < 0.0:
                values[i] = 0.0
            elif v > 1.0:
                values[i] = 1.0
    else:
        scale = hi - lo
        for i in range(values.shape[0]):
            values[i] = (values[i] - lo) / scale


# --------------------------------------------------------------------------
# Fused per-round kernels, one per method family.  Each runs a complete
# fixed-point round — votes, argmax, trust update, convergence norm — and
# returns the L-infinity trust delta.
# --------------------------------------------------------------------------
@_njit(cache=True)
def _round_vote(support_f, item_start, trust, new_trust, selected):
    _argmax_per_item(support_f, item_start, selected)
    for s in range(trust.shape[0]):
        new_trust[s] = trust[s]
    return 0.0


@_njit(cache=True)
def _round_hub(
    trust, new_trust, selected,
    claim_source, claim_cluster, item_start,
    counts_floor, log_counts, use_log, scores,
):
    n_claims = claim_source.shape[0]
    n_clusters = scores.shape[0]
    for c in range(n_clusters):
        scores[c] = 0.0
    for k in range(n_claims):
        scores[claim_cluster[k]] += trust[claim_source[k]]
    peak = scores[0]
    for c in range(1, n_clusters):
        if scores[c] > peak:
            peak = scores[c]
    if peak > 0.0:
        for c in range(n_clusters):
            scores[c] = scores[c] / peak
    _argmax_per_item(scores, item_start, selected)
    n_sources = new_trust.shape[0]
    for s in range(n_sources):
        new_trust[s] = 0.0
    for k in range(n_claims):
        new_trust[claim_source[k]] += scores[claim_cluster[k]]
    if use_log:
        for s in range(n_sources):
            new_trust[s] = log_counts[s] * new_trust[s] / counts_floor[s]
    tpeak = new_trust[0]
    for s in range(1, n_sources):
        if new_trust[s] > tpeak:
            tpeak = new_trust[s]
    if tpeak > 0.0:
        for s in range(n_sources):
            new_trust[s] = new_trust[s] / tpeak
    return _max_abs_diff(new_trust, trust)


@_njit(cache=True)
def _round_invest(
    trust, new_trust, selected,
    claim_source, claim_cluster, cluster_item, item_start,
    counts_floor, growth, pooled,
    invested, scores, item_pool, item_grown, per_claim,
):
    n_claims = claim_source.shape[0]
    n_clusters = scores.shape[0]
    n_items = item_start.shape[0] - 1
    for k in range(n_claims):
        s = claim_source[k]
        per_claim[k] = trust[s] / counts_floor[s]
    for c in range(n_clusters):
        invested[c] = 0.0
    for k in range(n_claims):
        invested[claim_cluster[k]] += per_claim[k]
    if pooled:
        for i in range(n_items):
            item_pool[i] = 0.0
            item_grown[i] = 0.0
        for c in range(n_clusters):
            grown = invested[c] ** growth
            scores[c] = grown
            item_pool[cluster_item[c]] += invested[c]
            item_grown[cluster_item[c]] += grown
        for c in range(n_clusters):
            denom = item_grown[cluster_item[c]]
            if denom < 1e-12:
                denom = 1e-12
            scores[c] = scores[c] * (item_pool[cluster_item[c]] / denom)
    else:
        for c in range(n_clusters):
            scores[c] = invested[c] ** growth
    _argmax_per_item(scores, item_start, selected)
    n_sources = new_trust.shape[0]
    for s in range(n_sources):
        new_trust[s] = 0.0
    for k in range(n_claims):
        denom = invested[claim_cluster[k]]
        if denom < 1e-12:
            denom = 1e-12
        share = per_claim[k] / denom
        new_trust[claim_source[k]] += scores[claim_cluster[k]] * share
    if not pooled:
        peak = new_trust[0]
        for s in range(1, n_sources):
            if new_trust[s] > peak:
                peak = new_trust[s]
        if peak > 0.0:
            for s in range(n_sources):
                new_trust[s] = new_trust[s] / peak
    return _max_abs_diff(new_trust, trust)


@_njit(cache=True)
def _round_cosine(
    trust, new_trust, selected,
    claim_source, claim_cluster, claim_item, cluster_item, item_start,
    clusters_per_item, damping, exponent,
    per_claim, positive, scores, item_a, item_b, src_a, src_b, src_c,
):
    n_claims = claim_source.shape[0]
    n_clusters = positive.shape[0]
    n_items = item_start.shape[0] - 1
    n_sources = new_trust.shape[0]
    for k in range(n_claims):
        t = trust[claim_source[k]]
        a = abs(t) ** exponent
        if t > 0.0:
            per_claim[k] = a
        elif t < 0.0:
            per_claim[k] = -a
        else:
            per_claim[k] = 0.0 * a
    for c in range(n_clusters):
        positive[c] = 0.0
    for i in range(n_items):
        item_a[i] = 0.0  # signed investment per item
        item_b[i] = 0.0  # absolute weight per item
    for k in range(n_claims):
        positive[claim_cluster[k]] += per_claim[k]
        w = per_claim[k]
        if w < 0.0:
            w = -w
        item_b[claim_item[k]] += w
    for c in range(n_clusters):
        item_a[cluster_item[c]] += positive[c]
    for c in range(n_clusters):
        denom = item_b[cluster_item[c]]
        if denom < 1e-9:
            denom = 1e-9
        scores[c] = (2.0 * positive[c] - item_a[cluster_item[c]]) / denom
    _argmax_per_item(scores, item_start, selected)
    # item-level score sums for the per-claim dot products
    for i in range(n_items):
        item_a[i] = 0.0  # sum of scores
        item_b[i] = 0.0  # sum of squared scores
    for c in range(n_clusters):
        item_a[cluster_item[c]] += scores[c]
        item_b[cluster_item[c]] += scores[c] ** 2
    for s in range(n_sources):
        src_a[s] = 0.0  # dots
        src_b[s] = 0.0  # norm_sq
        src_c[s] = 0.0  # positions
    for k in range(n_claims):
        s = claim_source[k]
        i = claim_item[k]
        src_a[s] += 2.0 * scores[claim_cluster[k]] - item_a[i]
        src_b[s] += item_b[i]
        src_c[s] += clusters_per_item[i]
    for s in range(n_sources):
        denom = math.sqrt(src_c[s]) * math.sqrt(src_b[s])
        if denom < 1e-9:
            denom = 1e-9
        new_trust[s] = damping * trust[s] + (1.0 - damping) * (src_a[s] / denom)
    return _max_abs_diff(new_trust, trust)


@_njit(cache=True)
def _round_truthfinder(
    trust, new_trust, selected,
    claim_source, claim_cluster, item_start,
    sim_a, sim_b, sim_w, counts_floor, gamma, rho,
    tau, sigma, scores,
):
    n_claims = claim_source.shape[0]
    n_clusters = sigma.shape[0]
    n_sources = new_trust.shape[0]
    for s in range(n_sources):
        t = trust[s]
        if t < 0.02:
            t = 0.02
        elif t > 0.98:
            t = 0.98
        tau[s] = -math.log(1.0 - t)
    for c in range(n_clusters):
        sigma[c] = 0.0
    for k in range(n_claims):
        sigma[claim_cluster[k]] += tau[claim_source[k]]
    for c in range(n_clusters):
        scores[c] = sigma[c]
    for e in range(sim_a.shape[0]):
        scores[sim_b[e]] += rho * sim_w[e] * sigma[sim_a[e]]
    for c in range(n_clusters):
        scores[c] = 1.0 / (1.0 + math.exp(scores[c] * -gamma))
    _argmax_per_item(scores, item_start, selected)
    for s in range(n_sources):
        new_trust[s] = 0.0
    for k in range(n_claims):
        new_trust[claim_source[k]] += scores[claim_cluster[k]]
    for s in range(n_sources):
        t = new_trust[s] / counts_floor[s]
        if t < 0.02:
            t = 0.02
        elif t > 0.98:
            t = 0.98
        new_trust[s] = t
    return _max_abs_diff(new_trust, trust)


@_njit(cache=True)
def _round_two_estimates(
    trust, new_trust, selected,
    claim_source, claim_cluster, claim_item, cluster_item, item_start,
    cluster_support_f, providers_per_item, clusters_per_item,
    round_estimates,
    support, theta_use, item_a, src_a,
):
    n_claims = claim_source.shape[0]
    n_clusters = support.shape[0]
    n_items = item_start.shape[0] - 1
    n_sources = new_trust.shape[0]
    for c in range(n_clusters):
        support[c] = 0.0
    for k in range(n_claims):
        support[claim_cluster[k]] += trust[claim_source[k]]
    for i in range(n_items):
        item_a[i] = 0.0  # item trust mass
    for c in range(n_clusters):
        item_a[cluster_item[c]] += support[c]
    for c in range(n_clusters):
        item = cluster_item[c]
        providers = providers_per_item[item]
        denier = (providers - cluster_support_f[c]) - (item_a[item] - support[c])
        denom = providers
        if denom < 1.0:
            denom = 1.0
        support[c] = (support[c] + denier) / denom  # theta, pre-rescale
    _minmax_inplace(support)
    if round_estimates:
        for i in range(n_items):
            s = item_start[i]
            e = item_start[i + 1]
            m = support[s]
            for c in range(s + 1, e):
                v = support[c]
                if v > m or v != v:
                    m = v
            threshold = m - 1e-12
            for c in range(s, e):
                if support[c] >= threshold:
                    theta_use[c] = 1.0
                else:
                    theta_use[c] = 0.0
    else:
        for c in range(n_clusters):
            theta_use[c] = support[c]
    _argmax_per_item(support, item_start, selected)
    for i in range(n_items):
        item_a[i] = 0.0  # item theta mass
    for c in range(n_clusters):
        item_a[cluster_item[c]] += theta_use[c]
    for s in range(n_sources):
        new_trust[s] = 0.0
        src_a[s] = 0.0  # positions
    for k in range(n_claims):
        item = claim_item[k]
        own = theta_use[claim_cluster[k]]
        clusters_here = clusters_per_item[item]
        denied = (clusters_here - 1.0) - (item_a[item] - own)
        new_trust[claim_source[k]] += own + denied
        src_a[claim_source[k]] += clusters_here
    for s in range(n_sources):
        denom = src_a[s]
        if denom < 1.0:
            denom = 1.0
        new_trust[s] = new_trust[s] / denom
    _minmax_inplace(new_trust)
    return _max_abs_diff(new_trust, trust)


@_njit(cache=True)
def _round_three_estimates(
    trust, new_trust, selected, difficulty,
    claim_source, claim_cluster, claim_item, cluster_item, item_start,
    providers_per_item, counts_floor,
    error, theta, cluster_a, cluster_b, item_a,
):
    n_claims = claim_source.shape[0]
    n_clusters = theta.shape[0]
    n_items = item_start.shape[0] - 1
    n_sources = new_trust.shape[0]
    for c in range(n_clusters):
        cluster_a[c] = 0.0  # confident mass
        cluster_b[c] = 0.0  # own error mass
    for i in range(n_items):
        item_a[i] = 0.0  # item error mass
    for k in range(n_claims):
        err = (1.0 - trust[claim_source[k]]) * difficulty[claim_cluster[k]]
        if err < 0.0:
            err = 0.0
        elif err > 1.0:
            err = 1.0
        error[k] = err
        cluster_a[claim_cluster[k]] += 1.0 - err
        cluster_b[claim_cluster[k]] += err
        item_a[claim_item[k]] += err
    for c in range(n_clusters):
        item = cluster_item[c]
        denom = providers_per_item[item]
        if denom < 1.0:
            denom = 1.0
        theta[c] = (cluster_a[c] + (item_a[item] - cluster_b[c])) / denom
    _minmax_inplace(theta)
    _argmax_per_item(theta, item_start, selected)
    # difficulty re-estimate: observed error mass over (1 - trust) capacity
    for c in range(n_clusters):
        cluster_a[c] = 0.0  # observed
        cluster_b[c] = 0.0  # capacity
    for k in range(n_claims):
        omt = 1.0 - theta[claim_cluster[k]]
        error[k] = omt
        cluster_a[claim_cluster[k]] += omt
        cluster_b[claim_cluster[k]] += 1.0 - trust[claim_source[k]]
    for c in range(n_clusters):
        denom = cluster_b[c]
        if denom < 1e-9:
            denom = 1e-9
        cluster_a[c] = cluster_a[c] / denom
    _minmax_inplace(cluster_a)
    for c in range(n_clusters):
        difficulty[c] = cluster_a[c]
    for s in range(n_sources):
        new_trust[s] = 0.0
    for k in range(n_claims):
        denom = difficulty[claim_cluster[k]]
        if denom < 0.05:
            denom = 0.05
        new_trust[claim_source[k]] += error[k] / denom
    for s in range(n_sources):
        new_trust[s] = 1.0 - new_trust[s] / counts_floor[s]
    _minmax_inplace(new_trust)
    return _max_abs_diff(new_trust, trust)


@_njit(cache=True)
def _round_accu(
    trust, new_trust, selected,
    claim_cluster, claim_gather, claim_flat, cluster_item, item_start,
    cluster_support_f, pop_discount,
    fmt_gather, fmt_cluster, fmt_w,
    sim_a, sim_b, sim_w,
    counts_flat, counts_floor,
    n_false, rho, n_attrs,
    per_attr, use_pop, use_sim, use_fmt,
    scores, base, src_a,
):
    n_claims = claim_cluster.shape[0]
    n_clusters = scores.shape[0]
    n_items = item_start.shape[0] - 1
    for c in range(n_clusters):
        scores[c] = 0.0
    for k in range(n_claims):
        a = trust[claim_gather[k]]
        if a < 0.02:
            a = 0.02
        elif a > 0.98:
            a = 0.98
        scores[claim_cluster[k]] += math.log(n_false * a / (1.0 - a))
    if use_pop:
        for c in range(n_clusters):
            scores[c] = scores[c] + pop_discount[c] * cluster_support_f[c]
    if use_fmt:
        for e in range(fmt_cluster.shape[0]):
            a = trust[fmt_gather[e]]
            if a < 0.02:
                a = 0.02
            elif a > 0.98:
                a = 0.98
            scores[fmt_cluster[e]] += fmt_w[e] * math.log(
                n_false * a / (1.0 - a)
            )
    if use_sim:
        for c in range(n_clusters):
            base[c] = scores[c]
        for e in range(sim_a.shape[0]):
            scores[sim_b[e]] += rho * sim_w[e] * base[sim_a[e]]
    # stabilized per-item softmax, accumulating in cluster order
    for i in range(n_items):
        s = item_start[i]
        e = item_start[i + 1]
        m = scores[s]
        for c in range(s + 1, e):
            v = scores[c]
            if v > m or v != v:
                m = v
        denom = 0.0
        for c in range(s, e):
            x = math.exp(scores[c] - m)
            scores[c] = x
            denom += x
        for c in range(s, e):
            scores[c] = scores[c] / denom
    _argmax_per_item(scores, item_start, selected)
    n_flat = new_trust.shape[0]
    for j in range(n_flat):
        new_trust[j] = 0.0
    for k in range(n_claims):
        new_trust[claim_flat[k]] += scores[claim_cluster[k]]
    if per_attr:
        n_sources = src_a.shape[0]
        for s in range(n_sources):
            gsum = 0.0
            gcount = 0.0
            for a in range(n_attrs):
                gsum += new_trust[s * n_attrs + a]
                gcount += counts_flat[s * n_attrs + a]
            if gcount < 1.0:
                gcount = 1.0
            src_a[s] = gsum / gcount
        for s in range(n_sources):
            for a in range(n_attrs):
                j = s * n_attrs + a
                t = (new_trust[j] + 4.0 * src_a[s]) / (counts_flat[j] + 4.0)
                if t < 0.02:
                    t = 0.02
                elif t > 0.98:
                    t = 0.98
                new_trust[j] = t
    else:
        for s in range(n_flat):
            t = new_trust[s] / counts_floor[s]
            if t < 0.02:
                t = 0.02
            elif t > 0.98:
                t = 0.98
            new_trust[s] = t
    return _max_abs_diff(new_trust, trust)


# --------------------------------------------------------------------------
# Program builders: bind a method instance + compiled problem to a fused
# round kernel.  Builders are registered against the *exact* class from the
# registry — subclasses (e.g. the per-category extension) keep custom trust
# layouts the kernels know nothing about, so they fall through to numpy.
# --------------------------------------------------------------------------
_EMPTY_F = np.zeros(0, dtype=np.float64)
_EMPTY_I = np.zeros(0, dtype=np.int64)


def _i8(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _f8(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64)


def _build_vote(method, problem, state):
    support = problem.cluster_support_f
    item_start = _i8(problem.item_start)

    def step(trust, new_trust, selected):
        return _round_vote(support, item_start, trust, new_trust, selected)

    return step


def _build_hub(method, problem, state, use_log=False):
    claim_source = _i8(problem.claim_source)
    claim_cluster = _i8(problem.claim_cluster)
    item_start = _i8(problem.item_start)
    counts_floor = problem.claims_per_source_floor
    if use_log:
        # Round-invariant, so computed with numpy once: the native trust
        # update stays bit-identical to the numpy engine's np.log.
        log_counts = problem._invariant(
            "nat_avglog_log",
            lambda: np.log(np.maximum(counts_floor, 2.0)),
        )
    else:
        log_counts = _EMPTY_F
    scores = problem.scratch("nat_scores", problem.n_clusters)

    def step(trust, new_trust, selected):
        return _round_hub(
            trust, new_trust, selected,
            claim_source, claim_cluster, item_start,
            counts_floor, log_counts, use_log, scores,
        )

    return step


def _build_avglog(method, problem, state):
    return _build_hub(method, problem, state, use_log=True)


def _build_invest(method, problem, state, pooled=False):
    claim_source = _i8(problem.claim_source)
    claim_cluster = _i8(problem.claim_cluster)
    cluster_item = _i8(problem.cluster_item)
    item_start = _i8(problem.item_start)
    counts_floor = problem.claims_per_source_floor
    growth = float(method.growth)
    nc, ni, nk = problem.n_clusters, problem.n_items, problem.n_claims
    invested = problem.scratch("nat_invested", nc)
    scores = problem.scratch("nat_scores", nc)
    item_pool = problem.scratch("nat_item_a", ni)
    item_grown = problem.scratch("nat_item_b", ni)
    per_claim = problem.scratch("nat_claim", nk)

    def step(trust, new_trust, selected):
        return _round_invest(
            trust, new_trust, selected,
            claim_source, claim_cluster, cluster_item, item_start,
            counts_floor, growth, pooled,
            invested, scores, item_pool, item_grown, per_claim,
        )

    return step


def _build_pooled_invest(method, problem, state):
    return _build_invest(method, problem, state, pooled=True)


def _build_cosine(method, problem, state):
    claim_source = _i8(problem.claim_source)
    claim_cluster = _i8(problem.claim_cluster)
    claim_item = _i8(problem.claim_item)
    cluster_item = _i8(problem.cluster_item)
    item_start = _i8(problem.item_start)
    clusters_per_item = problem.clusters_per_item
    nc, ni, nk = problem.n_clusters, problem.n_items, problem.n_claims
    ns = problem.n_sources
    per_claim = problem.scratch("nat_claim", nk)
    positive = problem.scratch("nat_invested", nc)
    scores = problem.scratch("nat_scores", nc)
    item_a = problem.scratch("nat_item_a", ni)
    item_b = problem.scratch("nat_item_b", ni)
    src_a = problem.scratch("nat_src_a", ns)
    src_b = problem.scratch("nat_src_b", ns)
    src_c = problem.scratch("nat_src_c", ns)

    def step(trust, new_trust, selected):
        return _round_cosine(
            trust, new_trust, selected,
            claim_source, claim_cluster, claim_item, cluster_item, item_start,
            clusters_per_item, float(method.damping), float(method.exponent),
            per_claim, positive, scores, item_a, item_b, src_a, src_b, src_c,
        )

    return step


def _build_truthfinder(method, problem, state):
    claim_source = _i8(problem.claim_source)
    claim_cluster = _i8(problem.claim_cluster)
    item_start = _i8(problem.item_start)
    sim_a, sim_b, sim_w = problem.similarity_edges
    sim_a, sim_b, sim_w = _i8(sim_a), _i8(sim_b), _f8(sim_w)
    counts_floor = problem.claims_per_source_floor
    nc, ns = problem.n_clusters, problem.n_sources
    tau = problem.scratch("nat_src_a", ns)
    sigma = problem.scratch("nat_invested", nc)
    scores = problem.scratch("nat_scores", nc)

    def step(trust, new_trust, selected):
        return _round_truthfinder(
            trust, new_trust, selected,
            claim_source, claim_cluster, item_start,
            sim_a, sim_b, sim_w, counts_floor,
            float(method.gamma), float(method.rho),
            tau, sigma, scores,
        )

    return step


def _build_two_estimates(method, problem, state):
    claim_source = _i8(problem.claim_source)
    claim_cluster = _i8(problem.claim_cluster)
    claim_item = _i8(problem.claim_item)
    cluster_item = _i8(problem.cluster_item)
    item_start = _i8(problem.item_start)
    nc, ni, ns = problem.n_clusters, problem.n_items, problem.n_sources
    cluster_support_f = problem.cluster_support_f
    providers_per_item = problem.providers_per_item
    clusters_per_item = problem.clusters_per_item
    round_estimates = bool(method.round_estimates)
    support = problem.scratch("nat_scores", nc)
    theta_use = problem.scratch("nat_invested", nc)
    item_a = problem.scratch("nat_item_a", ni)
    src_a = problem.scratch("nat_src_a", ns)

    def step(trust, new_trust, selected):
        return _round_two_estimates(
            trust, new_trust, selected,
            claim_source, claim_cluster, claim_item, cluster_item, item_start,
            cluster_support_f, providers_per_item, clusters_per_item,
            round_estimates,
            support, theta_use, item_a, src_a,
        )

    return step


def _build_three_estimates(method, problem, state):
    claim_source = _i8(problem.claim_source)
    claim_cluster = _i8(problem.claim_cluster)
    claim_item = _i8(problem.claim_item)
    cluster_item = _i8(problem.cluster_item)
    item_start = _i8(problem.item_start)
    difficulty = state["difficulty"]
    providers_per_item = problem.providers_per_item
    counts_floor = problem.claims_per_source_floor
    nc, ni, nk = problem.n_clusters, problem.n_items, problem.n_claims
    error = problem.scratch("nat_claim", nk)
    theta = problem.scratch("nat_scores", nc)
    cluster_a = problem.scratch("nat_invested", nc)
    cluster_b = problem.scratch("nat_cluster_b", nc)
    item_a = problem.scratch("nat_item_a", ni)

    def step(trust, new_trust, selected):
        return _round_three_estimates(
            trust, new_trust, selected, difficulty,
            claim_source, claim_cluster, claim_item, cluster_item, item_start,
            providers_per_item, counts_floor,
            error, theta, cluster_a, cluster_b, item_a,
        )

    return step


def _build_accu(method, problem, state):
    per_attr = bool(method.per_attribute_trust)
    n_attrs = problem.n_attrs
    claim_cluster = _i8(problem.claim_cluster)
    item_start = _i8(problem.item_start)
    claim_gather = (
        _i8(problem.claim_attr_flat) if per_attr
        else _i8(problem.claim_source)
    )
    use_pop = bool(method.use_popularity)
    use_sim = bool(method.use_similarity)
    use_fmt = bool(method.use_format)
    pop_discount = (
        method._popularity_discount(problem) if use_pop else _EMPTY_F
    )
    if use_fmt:
        fmt_source, fmt_cluster, fmt_w = problem.format_edges
        if per_attr:
            fmt_attr = problem.item_attr[problem.cluster_item[fmt_cluster]]
            fmt_gather = _i8(fmt_source * n_attrs + fmt_attr)
        else:
            fmt_gather = _i8(fmt_source)
        fmt_cluster = _i8(fmt_cluster)
        fmt_w = _f8(fmt_w)
    else:
        fmt_gather, fmt_cluster, fmt_w = _EMPTY_I, _EMPTY_I, _EMPTY_F
    if use_sim:
        sim_a, sim_b, sim_w = problem.similarity_edges
        sim_a, sim_b, sim_w = _i8(sim_a), _i8(sim_b), _f8(sim_w)
    else:
        sim_a, sim_b, sim_w = _EMPTY_I, _EMPTY_I, _EMPTY_F
    if per_attr:
        counts_flat = np.ascontiguousarray(
            problem.claims_per_source_attr
        ).reshape(-1)
    else:
        counts_flat = _EMPTY_F
    nc, ns = problem.n_clusters, problem.n_sources
    cluster_item = _i8(problem.cluster_item)
    scores = problem.scratch("nat_scores", nc)
    base = problem.scratch("nat_invested", nc)
    src_a = problem.scratch("nat_src_a", ns)
    # The flat accumulation index for the trust update: per-(source, attr)
    # cells when trust is per attribute, plain sources otherwise — the same
    # index the vote gather uses.
    claim_flat = claim_gather

    def step(trust, new_trust, selected):
        return _round_accu(
            trust, new_trust, selected,
            claim_cluster, claim_gather, claim_flat,
            cluster_item, item_start,
            problem.cluster_support_f, pop_discount,
            fmt_gather, fmt_cluster, fmt_w,
            sim_a, sim_b, sim_w,
            counts_flat, problem.claims_per_source_floor,
            float(method.n_false_values), float(method.rho), n_attrs,
            per_attr, use_pop, use_sim, use_fmt,
            scores, base, src_a,
        )

    return step


def _registry():
    from repro.fusion.bayesian import (
        AccuFormat,
        AccuFormatAttr,
        AccuPr,
        AccuSim,
        AccuSimAttr,
        PopAccu,
        TruthFinder,
    )
    from repro.fusion.ir import Cosine, ThreeEstimates, TwoEstimates
    from repro.fusion.vote import Vote
    from repro.fusion.weblink import AvgLog, Hub, Invest, PooledInvest

    return {
        "Vote": (Vote, _build_vote),
        "Hub": (Hub, _build_hub),
        "AvgLog": (AvgLog, _build_avglog),
        "Invest": (Invest, _build_invest),
        "PooledInvest": (PooledInvest, _build_pooled_invest),
        "2-Estimates": (TwoEstimates, _build_two_estimates),
        "3-Estimates": (ThreeEstimates, _build_three_estimates),
        "Cosine": (Cosine, _build_cosine),
        "TruthFinder": (TruthFinder, _build_truthfinder),
        "AccuPr": (AccuPr, _build_accu),
        "PopAccu": (PopAccu, _build_accu),
        "AccuSim": (AccuSim, _build_accu),
        "AccuFormat": (AccuFormat, _build_accu),
        "AccuSimAttr": (AccuSimAttr, _build_accu),
        "AccuFormatAttr": (AccuFormatAttr, _build_accu),
        # AccuCopy interleaves numpy copy detection: numpy fallback.
    }


_BUILDERS: Optional[Dict[str, Tuple[type, Callable]]] = None


def _builders() -> Dict[str, Tuple[type, Callable]]:
    global _BUILDERS
    if _BUILDERS is None:
        _BUILDERS = _registry()
    return _BUILDERS


#: Methods with a fused native program (the rest run the numpy fallback).
def native_method_names() -> Tuple[str, ...]:
    return tuple(_builders())


#: Methods whose native rounds are bit-identical to the numpy engine.
EXACT_METHODS = ("Vote", "Hub", "AvgLog", "2-Estimates", "3-Estimates")


def supports(method) -> bool:
    """Whether ``method`` has a native program this process can execute."""
    if not available():
        return False
    entry = _builders().get(method.name)
    return entry is not None and type(method) is entry[0]


def solve(method, problem, state, profiler=None):
    """Run ``method``'s fixed point natively; ``None`` if unsupported.

    Mirrors :func:`repro.fusion.spec.run_fixed_point`: mutates ``state`` in
    place and returns ``(selected, rounds, converged)``.  Callers fall
    through to the numpy loop on ``None`` — unsupported methods, subclassed
    methods with custom trust layouts, or numba being absent (unless forced).
    """
    if not supports(method):
        return None
    entry = _builders()[method.name]
    build_started = time.perf_counter()
    step = entry[1](method, problem, state)
    trust0 = state["trust"]
    flat = int(trust0.size)
    cur = problem.scratch("nat_trust_a", flat)
    nxt = problem.scratch("nat_trust_b", flat)
    np.copyto(cur, trust0.reshape(flat))
    selected = np.empty(problem.n_items, dtype=np.int64)
    if profiler is not None:
        profiler.add("native_build", time.perf_counter() - build_started)
    rounds = 0
    converged = False
    for rounds in range(1, method.max_rounds + 1):
        started = time.perf_counter() if profiler is not None else 0.0
        delta = step(cur, nxt, selected)
        if profiler is not None:
            profiler.add("native_round", time.perf_counter() - started)
        cur, nxt = nxt, cur
        if delta < method.tolerance:
            converged = True
            break
    # Streams carry trust across days and problems outlive solves, so the
    # final trust must not alias the scratch pool.
    state["trust"] = cur.copy().reshape(trust0.shape)
    return selected, rounds, converged
