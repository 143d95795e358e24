"""Solving many source-restrictions of one problem.

The Figure 9 sweep and greedy source selection solve *several* methods on
dozens of restrictions of the *same* snapshot (source prefixes, candidate
subsets).  Compiling a restriction costs about as much as solving it, so
:class:`RestrictionSweep` compiles every restriction once — sharing one
presorted Equation-(3) tolerance table and delta-compiling nested prefixes
— and each method then runs one cold fixed point per compiled restriction,
bit-identical to ``method.run(base.restrict_sources(subset))``.
:class:`~repro.core.gold.GoldScorer` (re-exported here) scores the raw
selections against the gold standard without packaging per-item dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.gold import GoldScorer  # noqa: F401  (re-exported)
from repro.errors import FusionError
from repro.fusion.base import FusionMethod, FusionProblem, FusionResult
from repro.fusion.spec import MethodSpec


@dataclass
class RestrictionOutcome:
    """One restriction's solve outcome.

    ``result`` is ``None`` for *raw* outcomes (``package=False``): the
    selection stays an array of per-item cluster indices
    (``selected_local``) for :class:`GoldScorer`-style vectorized scoring,
    and ``matcher`` is the restricted problem itself.
    """

    sources: List[str]
    result: Optional[FusionResult]
    matcher: Optional[object]  # the restricted problem, for gold scoring
    empty: bool = False
    trust_array: Optional[np.ndarray] = field(default=None, repr=False)
    selected_local: Optional[np.ndarray] = field(default=None, repr=False)
    rounds: int = 0
    converged: bool = False


def _empty_outcome(base: FusionProblem, subset: Sequence[str]) -> RestrictionOutcome:
    wanted = set(subset)
    return RestrictionOutcome(
        sources=[s for s in base.sources if s in wanted],
        result=None,
        matcher=None,
        empty=True,
    )


def solve_restrictions(
    base: FusionProblem,
    method: Union[FusionMethod, MethodSpec],
    subsets: Sequence[Sequence[str]],
) -> List[RestrictionOutcome]:
    """Solve ``method`` on every source-restriction of ``base``.

    Bit-identical to ``method.run(base.restrict_sources(subset))`` per
    subset; restrictions that lose every claim yield ``empty`` outcomes
    (the per-job path raises :class:`FusionError` there).  To run several
    methods over one set of restrictions, build a :class:`RestrictionSweep`
    so the compilations are shared.
    """
    return RestrictionSweep(base, subsets).solve(method)


#: Stop delta-compiling a prefix step when the fresh sources dirty more
#: than this fraction of the restriction's claims — the splice bookkeeping
#: no longer beats recompiling the subset outright.
PREFIX_DELTA_THRESHOLD = 0.5


class RestrictionSweep:
    """Many source-restrictions of one problem, compiled once, solved often.

    Compiling a restriction (tolerances + re-bucketing) costs as much as
    solving it, and a sweep typically runs *several* methods over the same
    subsets — so the compilations are hoisted here and shared.  Every
    subset's Equation-(3) medians come from one presorted pass
    (:class:`_SharedToleranceTable`) instead of a fresh scan per subset,
    with identical results.

    Consecutive subsets that grow monotonically — the Figure 9 source
    prefixes, and each worker chunk of a strided prefix sweep — are
    **delta-compiled**: only the items touched by the newly added sources
    (plus any whole attribute whose Equation-(3) median moved) are
    re-bucketed, and their fresh segments are spliced into the previous
    restriction's compiled arrays (:func:`repro.core.delta.splice_compiled`).
    Item-local clustering makes the result bit-identical to compiling the
    subset from scratch; ``delta_compiles`` counts how often the fast path
    ran.
    """

    def __init__(
        self,
        base: FusionProblem,
        subsets: Sequence[Sequence[str]],
        delta_threshold: float = PREFIX_DELTA_THRESHOLD,
    ):
        self.base = base
        self.subsets = [list(s) for s in subsets]
        self.subs: List[Optional[FusionProblem]] = []
        self.delta_threshold = delta_threshold
        self.delta_compiles = 0
        table = (
            _SharedToleranceTable(base)
            if base._view is not None and len(self.subsets) > 1
            else None
        )
        view = base._view
        prev: Optional[Tuple[set, FusionProblem]] = None
        for subset in self.subsets:
            wanted = set(subset)
            attr_tol = None
            if table is not None and not all(s in wanted for s in base.sources):
                keep_view = np.zeros(view.n_sources, dtype=bool)
                keep_view[base._source_codes[
                    [i for i, s in enumerate(base.sources) if s in wanted]
                ]] = True
                attr_tol = table.for_sources(keep_view)
            sub = None
            if (
                view is not None
                and prev is not None
                and prev[0] < wanted
                and not all(s in wanted for s in base.sources)
            ):
                sub = self._delta_restrict(prev[1], wanted, attr_tol)
            if sub is None:
                try:
                    sub = base.restrict_sources(subset, attr_tol=attr_tol)
                except FusionError:
                    sub = None
            self.subs.append(sub)
            prev = (wanted & set(base.sources), sub) if sub is not None else None

    def _delta_restrict(
        self,
        prev: FusionProblem,
        wanted: set,
        attr_tol: Optional[np.ndarray],
    ) -> Optional[FusionProblem]:
        """Grow ``prev``'s compilation to the superset ``wanted``, exactly.

        Returns ``None`` (caller recompiles from scratch) when the added
        sources dirty too much of the restriction for the splice to pay.
        """
        from repro.core.columnar import compile_clusters, compute_tolerances
        from repro.core.delta import splice_compiled

        base = self.base
        view = base._view
        keep = [i for i, s in enumerate(base.sources) if s in wanted]
        new_sources = [base.sources[i] for i in keep]
        new_codes = base._source_codes[keep]
        keep_view = np.zeros(view.n_sources, dtype=bool)
        keep_view[new_codes] = True
        mask = keep_view[view.claim_source]
        if base._claim_mask is not None:
            mask &= base._claim_mask
        if attr_tol is None:
            attr_tol = compute_tolerances(view, mask)

        prev_mask = prev._claim_mask
        added = mask if prev_mask is None else (mask & ~prev_mask)
        dirty = np.zeros(len(view.items), dtype=bool)
        dirty[view.claim_item[added]] = True
        tol_moved = attr_tol != prev._attr_tol
        if tol_moved.any():
            dirty |= tol_moved[view.item_attr]
        partial_mask = mask & dirty[view.claim_item]
        n_current = int(mask.sum())
        if n_current == 0 or int(partial_mask.sum()) > self.delta_threshold * n_current:
            return None
        partial = compile_clusters(view, attr_tol, partial_mask)
        compiled = splice_compiled(prev.compiled_clusters(), partial, dirty)
        self.delta_compiles += 1
        return FusionProblem.from_compiled(
            view=view,
            compiled=compiled,
            sources=new_sources,
            source_codes=new_codes,
            attr_tol=attr_tol,
            claim_mask=mask,
        )

    def solve(
        self,
        method: Union[FusionMethod, MethodSpec],
        package: bool = True,
    ) -> List[RestrictionOutcome]:
        """Solve ``method`` on every restriction, one cold fixed point each.

        ``package=False`` returns *raw* outcomes — cluster-index selections
        and trust arrays instead of packaged :class:`FusionResult` dicts —
        for vectorized downstream scoring (:class:`GoldScorer`).
        """
        spec = MethodSpec.of(method)
        return [
            _empty_outcome(self.base, subset) if sub is None
            else _solo_outcome(sub, spec, package)
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
        self.positions = positions[order]
        self.attrs = claim_attr[self.positions]
        self.mags = magnitude[self.positions]
        self.sources = view.claim_source[self.positions]

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


def _solo_outcome(
    sub: FusionProblem, spec: MethodSpec, package: bool
) -> RestrictionOutcome:
    """Solve one restriction from a cold start."""
    from repro.fusion.spec import FusionSession, run_fixed_point

    if package:
        result = FusionSession(spec, warm_start=False).step(sub)
        return RestrictionOutcome(
            sources=list(sub.sources), result=result, matcher=sub
        )
    state = spec.initial_state(sub, None)
    selected, rounds, converged = run_fixed_point(spec, sub, state)
    return RestrictionOutcome(
        sources=list(sub.sources),
        result=None,
        matcher=sub,
        trust_array=state["trust"],
        selected_local=selected,
        rounds=rounds,
        converged=converged,
    )
