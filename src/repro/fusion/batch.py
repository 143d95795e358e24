"""Solving many source-restrictions of one problem.

The Figure 9 sweep and greedy source selection solve *several* methods on
dozens of restrictions of the *same* snapshot (source prefixes, candidate
subsets).  Compiling a restriction costs about as much as solving it, so
:class:`RestrictionSweep` compiles every restriction once through
:meth:`~repro.fusion.base.FusionProblem.restrict_sources`, sharing one
presorted Equation-(3) tolerance table, and each method then runs one cold
fixed point per compiled restriction, bit-identical to
``method.run(base.restrict_sources(subset))``.  Outcomes are raw arrays;
:class:`~repro.core.gold.GoldScorer` (re-exported here) scores their
selections against the gold standard without packaging per-item dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.gold import GoldScorer  # noqa: F401  (re-exported)
from repro.errors import FusionError
from repro.fusion.base import FusionMethod, FusionProblem
from repro.fusion.spec import run_fixed_point


@dataclass
class RestrictionOutcome:
    """One restriction's raw solve outcome.

    The selection stays an array of per-item cluster indices
    (``selected_local``) for :class:`GoldScorer`-style vectorized scoring,
    and ``matcher`` is the restricted problem itself (``None`` for an
    ``empty`` outcome, a restriction that lost every claim).
    """

    sources: List[str]
    matcher: Optional[FusionProblem]
    empty: bool = False
    trust_array: Optional[np.ndarray] = field(default=None, repr=False)
    selected_local: Optional[np.ndarray] = field(default=None, repr=False)
    rounds: int = 0
    converged: bool = False


class RestrictionSweep:
    """Many source-restrictions of one problem, compiled once, solved often.

    Compiling a restriction (tolerances + re-bucketing) costs as much as
    solving it, and a sweep typically runs *several* methods over the same
    subsets — so the compilations are hoisted here and shared.  Every
    subset compiles through :meth:`FusionProblem.restrict_sources`, with its
    Equation-(3) medians taken from one presorted pass
    (:class:`_SharedToleranceTable`) instead of a fresh scan per subset,
    with identical results.  A subset that loses every claim compiles to
    ``None`` and solves to an ``empty`` outcome.
    """

    def __init__(self, base: FusionProblem, subsets: Sequence[Sequence[str]]):
        self.base = base
        self.subsets = [list(s) for s in subsets]
        self.subs: List[Optional[FusionProblem]] = []
        table = (
            _SharedToleranceTable(base)
            if base._view is not None and len(self.subsets) > 1
            else None
        )
        for subset in self.subsets:
            wanted = set(subset)
            attr_tol = None
            if table is not None and not all(s in wanted for s in base.sources):
                keep_view = np.zeros(base._view.n_sources, dtype=bool)
                keep_view[base._source_codes[
                    [i for i, s in enumerate(base.sources) if s in wanted]
                ]] = True
                attr_tol = table.for_sources(keep_view)
            try:
                sub = base.restrict_sources(subset, attr_tol=attr_tol)
            except FusionError:
                sub = None
            self.subs.append(sub)

    def solve(self, method: FusionMethod) -> List[RestrictionOutcome]:
        """Solve ``method`` on every restriction, one cold fixed point each."""
        return [
            _empty_outcome(self.base, subset) if sub is None
            else _solo_outcome(sub, method)
            for subset, sub in zip(self.subsets, self.subs)
        ]


class _SharedToleranceTable:
    """Equation-(3) tolerances for many source-subsets of one problem.

    ``compute_tolerances`` re-scans and re-medians every attribute column
    per restriction.  This table sorts the base problem's numeric claims
    once by ``(attribute, |value|)``; each subset's per-attribute median is
    then a boolean filter plus a middle-element pick over the presorted
    magnitudes — numerically identical to ``np.median`` (middle element,
    or the mean of the two middles), at a fraction of the cost.
    """

    def __init__(self, base: FusionProblem):
        from repro.core.attributes import TIME_TOLERANCE_MINUTES, ValueKind

        view = base._view
        self.n_attrs = view.n_attrs
        specs = view.attr_specs
        self.base_tol = np.zeros(self.n_attrs, dtype=np.float64)
        is_time = np.asarray(
            [spec.kind is ValueKind.TIME for spec in specs], dtype=bool
        )
        self.base_tol[is_time] = TIME_TOLERANCE_MINUTES
        is_numeric = np.asarray(
            [spec.kind.is_numeric for spec in specs], dtype=bool
        )
        self.factors = np.asarray(
            [spec.tolerance_factor for spec in specs], dtype=np.float64
        )
        claim_attr = view.item_attr[view.claim_item]
        magnitude = np.abs(view.claim_numeric)
        ok = is_numeric[claim_attr] & ~np.isnan(magnitude)
        if base._claim_mask is not None:
            ok &= base._claim_mask
        positions = np.flatnonzero(ok)
        order = np.lexsort((magnitude[positions], claim_attr[positions]))
        positions = positions[order]
        self.attrs = claim_attr[positions]
        self.mags = magnitude[positions]
        self.sources = view.claim_source[positions]

    def for_sources(self, keep_view: np.ndarray) -> np.ndarray:
        """Tolerances of the restriction keeping ``keep_view`` sources."""
        keep = keep_view[self.sources]
        attrs, mags = self.attrs[keep], self.mags[keep]
        tolerances = self.base_tol.copy()
        if not len(attrs):
            return tolerances
        starts = np.searchsorted(attrs, np.arange(self.n_attrs + 1))
        counts = np.diff(starts)
        present = np.flatnonzero(counts)
        mid = starts[present] + (counts[present] - 1) // 2
        hi = np.minimum(mid + 1, len(mags) - 1)
        medians = np.where(
            counts[present] % 2 == 1, mags[mid], (mags[mid] + mags[hi]) / 2.0
        )
        tolerances[present] = self.factors[present] * medians
        return tolerances


def _empty_outcome(base: FusionProblem, subset: Sequence[str]) -> RestrictionOutcome:
    wanted = set(subset)
    return RestrictionOutcome(
        sources=[s for s in base.sources if s in wanted],
        matcher=None,
        empty=True,
    )


def _solo_outcome(sub: FusionProblem, method: FusionMethod) -> RestrictionOutcome:
    """Solve one restriction from a cold start."""
    state = method._initial_state(sub, None)
    selected, rounds, converged = run_fixed_point(method, sub, state)
    return RestrictionOutcome(
        sources=list(sub.sources),
        matcher=sub,
        trust_array=state["trust"],
        selected_local=selected,
        rounds=rounds,
        converged=converged,
    )
