"""Delta compilation across daily snapshots.

The observation period is a month of daily snapshots that share the vast
majority of their claims, yet the one-shot pipeline recompiles every day
from scratch: flatten the claim dicts, recompute tolerances, re-bucket
every item, rebuild the fusion problem.  :class:`SeriesCompiler` amortizes
that across days by maintaining a **union claim universe** — items,
sources, and exact values interned once, every distinct
``(item, source, value, granularity)`` claim stored once, grouped by item
in first-arrival order — together with a per-day *active mask* over the
stored claims.

Compiling day ``d`` then reduces to a diff against day ``d-1``:

1. match the day's claims against the store (one vectorized
   ``searchsorted`` over composite int64 keys) and insert the new ones at
   the end of their item segments;
2. mark *dirty* items — those whose active claim set changed, plus every
   item of an attribute whose Equation-(3) tolerance moved (tolerances are
   medians over the day's claims, so a shifted median re-grids the whole
   attribute);
3. re-cluster **only the dirty items** with the ordinary
   :func:`~repro.core.columnar.compile_clusters` kernel and splice their
   fresh segments into yesterday's compiled arrays (:func:`splice_compiled`).

Because the Section 3.2 bucketing is independent across items, the spliced
result is equal to a full recompile of the day (the equivalence suite holds
both paths to identical selections), but the per-day cost scales with the
churn, not the snapshot.

Two entry points produce a :class:`DayCompilation`:

* :meth:`SeriesCompiler.ingest` — diff a full :class:`Dataset` snapshot
  (pays one pass over the day's columnar view);
* :meth:`SeriesCompiler.apply_delta` — apply an explicit
  :class:`ClaimDelta` (added/retracted claims, new sources) when the
  upstream feed already knows what changed.  Sorted value ranks are
  patched rather than recomputed; both entry points take the day's
  Equation-(3) tolerances from
  :func:`~repro.core.columnar.compute_tolerances` over the active claims,
  the one median implementation.  Copy-detection overlap counts are not
  kept here: :attr:`~repro.fusion.base.FusionProblem.copy_structures`
  builds them on each day's problem when a copy-aware method first asks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.attributes import AttributeTable
from repro.core.columnar import (
    ColumnarView,
    CompiledClusters,
    compile_clusters,
    compute_tolerances,
)
from repro.core.dataset import Dataset
from repro.core.records import Claim, DataItem, SourceMeta, Value
from repro.errors import FusionError, SchemaError

#: Composite claim-key layout, low to high:
#: granularity code | value code | source code | item code.
_GRAN_BITS = 6
_VAL_BITS = 30
_SRC_BITS = 10
_VAL_SHIFT = _GRAN_BITS
_SRC_SHIFT = _GRAN_BITS + _VAL_BITS
_ITEM_SHIFT = _SRC_SHIFT + _SRC_BITS

#: Recompile everything when more than this fraction of the day's items are
#: dirty — the splice bookkeeping stops paying for itself.
FULL_COMPILE_THRESHOLD = 0.5
#: Compact the claim store when inactive claims outnumber active ones by
#: this factor (high-churn feeds would otherwise grow it without bound).
DEFAULT_MAX_INACTIVE_RATIO = 1.0
#: Re-rank densely when fractional insertion would create gaps this small.
_RANK_MIN_GAP = 1e-9


def _run_offsets(sorted_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Occurrence index of each element within its run of equal keys.

    ``sorted_keys`` must be sorted so equal keys are consecutive.  Returns
    ``(offsets, sizes)`` — per element, its 0-based position inside its run
    and the run's total length.
    """
    n = len(sorted_keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    run_start = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    run_id = np.cumsum(run_start) - 1
    run_len = np.bincount(run_id)
    sizes = np.repeat(run_len, run_len)
    offsets = np.arange(n, dtype=np.int64) - np.repeat(
        np.cumsum(run_len) - run_len, run_len
    )
    return offsets, sizes


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[start, start+count)`` ranges, vectorized."""
    counts = counts.astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    base = np.repeat(starts.astype(np.int64), counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return base + offsets


def _scatter_insert_map(
    n_old: int, positions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Destination indices for a batched ``np.insert``-equivalent.

    ``positions`` are original-coordinate insertion points (sorted,
    duplicates allowed, ``np.insert`` semantics).  Returns
    ``(old_dest, new_dest)``: where each existing element lands and where
    each inserted element lands in the grown array.  One index computation
    serves every parallel column — the store's five columns, the key index,
    and the callers' activity masks all scatter through the same maps
    instead of paying ``np.insert``'s per-array re-derivation.
    """
    k = len(positions)
    counts = np.bincount(positions, minlength=n_old + 1)
    old_dest = np.arange(n_old, dtype=np.int64)
    if k:
        old_dest += np.cumsum(counts[:n_old])
    new_dest = positions + np.arange(k, dtype=np.int64)
    return old_dest, new_dest


def _scatter_insert(
    old: np.ndarray,
    values,
    old_dest: np.ndarray,
    new_dest: np.ndarray,
    fill=None,
) -> np.ndarray:
    """One allocation + two scatters: ``np.insert(old, positions, values)``."""
    out = np.empty(len(old_dest) + len(new_dest), dtype=old.dtype)
    out[old_dest] = old
    out[new_dest] = fill if values is None else values
    return out


def _two_source_gather(
    from_first: np.ndarray,
    indices: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """Gather from two arrays, picking the source per element."""
    dtype = first.dtype if len(first) else second.dtype
    out = np.empty(len(indices), dtype=dtype)
    out[from_first] = first[indices[from_first]]
    rest = ~from_first
    out[rest] = second[indices[rest]]
    return out


def splice_compiled(
    prev: CompiledClusters,
    partial: CompiledClusters,
    dirty_items: np.ndarray,
) -> CompiledClusters:
    """Merge yesterday's clean item segments with freshly compiled dirty ones.

    ``prev`` is yesterday's full compilation, ``partial`` the compilation of
    today's claims restricted to dirty items, and ``dirty_items`` a boolean
    mask over union item codes.  Clean items keep yesterday's cluster and
    claim segments verbatim; dirty items take today's.  Because the
    clustering kernel treats items independently, the result equals a full
    compile of today's claims.
    """
    prev_keep = ~dirty_items[prev.item_index]

    prev_ccount = np.diff(prev.item_start)
    part_ccount = np.diff(partial.item_start)
    prev_claim_bounds = np.concatenate(
        ([0], np.cumsum(prev.cluster_support))
    ).astype(np.int64)
    part_claim_bounds = np.concatenate(
        ([0], np.cumsum(partial.cluster_support))
    ).astype(np.int64)

    items = np.concatenate((prev.item_index[prev_keep], partial.item_index))
    attrs = np.concatenate((prev.item_attr[prev_keep], partial.item_attr))
    from_prev = np.concatenate(
        (
            np.ones(int(prev_keep.sum()), dtype=bool),
            np.zeros(len(partial.item_index), dtype=bool),
        )
    )
    seg_cstart = np.concatenate(
        (prev.item_start[:-1][prev_keep], partial.item_start[:-1])
    )
    seg_ccount = np.concatenate((prev_ccount[prev_keep], part_ccount))
    seg_qstart = np.concatenate(
        (
            prev_claim_bounds[prev.item_start[:-1]][prev_keep],
            part_claim_bounds[partial.item_start[:-1]],
        )
    )
    seg_qend = np.concatenate(
        (
            prev_claim_bounds[prev.item_start[1:]][prev_keep],
            part_claim_bounds[partial.item_start[1:]],
        )
    )
    seg_qcount = seg_qend - seg_qstart

    order = np.argsort(items, kind="stable")  # union codes are disjoint
    items = items[order]
    attrs = attrs[order]
    from_prev = from_prev[order]
    seg_cstart = seg_cstart[order]
    seg_ccount = seg_ccount[order]
    seg_qstart = seg_qstart[order]
    seg_qcount = seg_qcount[order]

    n_items = len(items)
    item_start = np.concatenate(([0], np.cumsum(seg_ccount))).astype(np.int64)

    # ---- cluster-level arrays
    cidx = _ranges(seg_cstart, seg_ccount)
    c_from_prev = np.repeat(from_prev, seg_ccount)
    cluster_value = _two_source_gather(
        c_from_prev, cidx, prev.cluster_value, partial.cluster_value
    )
    cluster_support = _two_source_gather(
        c_from_prev, cidx, prev.cluster_support, partial.cluster_support
    )
    cluster_item = np.repeat(np.arange(n_items, dtype=np.int64), seg_ccount)

    # ---- claim-level arrays (claims are item-contiguous in compiled order)
    qidx = _ranges(seg_qstart, seg_qcount)
    q_from_prev = np.repeat(from_prev, seg_qcount)
    claim_source = _two_source_gather(
        q_from_prev, qidx, prev.claim_source, partial.claim_source
    )
    claim_value = _two_source_gather(
        q_from_prev, qidx, prev.claim_value, partial.claim_value
    )
    claim_granularity = _two_source_gather(
        q_from_prev, qidx, prev.claim_granularity, partial.claim_granularity
    )
    src_cluster = _two_source_gather(
        q_from_prev, qidx, prev.claim_cluster, partial.claim_cluster
    )
    # Shift each claim's cluster id from its source compile's numbering to
    # the spliced numbering: subtract the item's cluster offset there, add
    # the item's cluster offset here.
    claim_cluster = (
        src_cluster
        - np.repeat(seg_cstart, seg_qcount)
        + np.repeat(item_start[:-1], seg_qcount)
    )

    return CompiledClusters(
        item_index=items,
        item_attr=attrs,
        item_start=item_start,
        cluster_item=cluster_item,
        cluster_value=cluster_value,
        cluster_support=cluster_support.astype(np.int64),
        claim_source=claim_source,
        claim_cluster=claim_cluster,
        claim_value=claim_value,
        claim_granularity=claim_granularity,
    )


@dataclass(frozen=True)
class ClaimDelta:
    """An explicit day-over-day change set for :meth:`SeriesCompiler.apply_delta`.

    ``added`` entries replace any existing claim of the same (source, item)
    cell — at most one add per cell per delta; ``retracted`` entries remove
    the cell's claim.  ``new_sources`` declares sources that may appear in
    ``added`` for the first time.
    """

    day: str
    added: Tuple[Tuple[str, DataItem, Claim], ...] = ()
    retracted: Tuple[Tuple[str, DataItem], ...] = ()
    new_sources: Tuple[SourceMeta, ...] = ()


@dataclass(frozen=True)
class DayStats:
    """What one day's delta compilation actually did."""

    n_active_claims: int
    n_added_claims: int
    n_removed_claims: int
    n_active_items: int
    n_dirty_items: int
    full_compile: bool
    compacted: bool
    ingest_seconds: float


@dataclass
class DayCompilation:
    """One day compiled against the union universe, ready to fuse.

    ``view``/``compiled``/``claim_mask`` are exactly the inputs
    :meth:`repro.fusion.base.FusionProblem.from_compiled` expects;
    :meth:`problem` builds (and caches) that problem.
    """

    day: str
    view: ColumnarView
    compiled: CompiledClusters
    attr_tol: np.ndarray
    claim_mask: np.ndarray
    sources: List[str]
    source_codes: np.ndarray
    stats: DayStats
    _problem: Optional[object] = field(default=None, repr=False)

    def problem(self):
        """The day's :class:`~repro.fusion.base.FusionProblem` (cached)."""
        if self._problem is None:
            # Imported here: core stays importable without the fusion layer.
            from repro.fusion.base import FusionProblem

            self._problem = FusionProblem.from_compiled(
                view=self.view,
                compiled=self.compiled,
                sources=list(self.sources),
                source_codes=self.source_codes,
                attr_tol=self.attr_tol,
                claim_mask=self.claim_mask,
            )
        return self._problem


class SeriesCompiler:
    """Incremental compiler for a stream of daily snapshots of one domain."""

    def __init__(self):
        self._attributes: Optional[AttributeTable] = None
        self._attr_names: List[str] = []
        self._attr_specs: List[object] = []

        self._items: List[DataItem] = []
        self._item_code: Dict[DataItem, int] = {}
        self._item_attr_list: List[int] = []
        self._sources: List[str] = []
        self._source_code: Dict[str, int] = {}
        self._declared: List[str] = []

        self._values: List[Value] = []
        self._value_code: Dict[Value, int] = {}
        self._value_numeric = np.zeros(0, dtype=np.float64)
        self._rank_arr = np.zeros(0, dtype=np.float64)
        self._sorted_strs: Optional[np.ndarray] = None  # object dtype
        self._sorted_ranks: Optional[np.ndarray] = None

        self._gran_code: Dict[float, int] = {0.0: 0}
        self._gran_values: List[float] = [0.0]

        # Claim store, positional, grouped by item in first-arrival order.
        self._s_item = np.zeros(0, dtype=np.int64)
        self._s_src = np.zeros(0, dtype=np.int64)
        self._s_val = np.zeros(0, dtype=np.int64)
        self._s_granc = np.zeros(0, dtype=np.int64)
        self._s_key = np.zeros(0, dtype=np.int64)
        self._item_counts = np.zeros(0, dtype=np.int64)
        self._active = np.zeros(0, dtype=bool)
        # Key lookup index: keys in sorted order + their store positions.
        self._key_sorted = np.zeros(0, dtype=np.int64)
        self._key_pos = np.zeros(0, dtype=np.int64)

        self._prev_tol: Optional[np.ndarray] = None
        self._prev_compiled: Optional[CompiledClusters] = None
        self.days: List[str] = []

    # ------------------------------------------------------------- interning
    def _check_attributes(self, attributes: AttributeTable) -> None:
        if self._attributes is None:
            self._attributes = attributes
            self._attr_names = list(attributes.names)
            self._attr_specs = [attributes[name] for name in self._attr_names]
            return
        if list(attributes.names) != self._attr_names:
            raise SchemaError(
                "snapshot attribute table differs from the stream's; "
                "a SeriesCompiler serves one domain schema"
            )

    def _intern_source(self, source_id: str) -> int:
        code = self._source_code.get(source_id)
        if code is None:
            code = len(self._sources)
            if code >= (1 << _SRC_BITS):
                raise FusionError("too many distinct sources for the claim key")
            self._sources.append(source_id)
            self._source_code[source_id] = code
        return code

    def _intern_item(self, item: DataItem, attr_code: int) -> int:
        code = self._item_code.get(item)
        if code is None:
            code = len(self._items)
            if code >= (1 << (63 - _ITEM_SHIFT)):
                raise FusionError("too many distinct items for the claim key")
            self._items.append(item)
            self._item_code[item] = code
            self._item_attr_list.append(attr_code)
        return code

    def _intern_gran(self, granularity: float) -> int:
        code = self._gran_code.get(granularity)
        if code is None:
            code = len(self._gran_values)
            if code >= (1 << _GRAN_BITS):
                raise FusionError("too many distinct granularities")
            self._gran_values.append(granularity)
            self._gran_code[granularity] = code
        return code

    def _intern_values(self, new_values: List[Value]) -> np.ndarray:
        """Register values not seen before; returns their codes."""
        codes = np.empty(len(new_values), dtype=np.int64)
        fresh: List[Value] = []
        for i, value in enumerate(new_values):
            code = self._value_code.get(value)
            if code is None:
                code = len(self._values)
                self._values.append(value)
                self._value_code[value] = code
                fresh.append(value)
            codes[i] = code
        if fresh:
            if len(self._values) >= (1 << _VAL_BITS):
                raise FusionError("too many distinct values for the claim key")
            numeric = np.empty(len(fresh), dtype=np.float64)
            for i, value in enumerate(fresh):
                try:
                    numeric[i] = float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    numeric[i] = np.nan
            self._value_numeric = np.concatenate((self._value_numeric, numeric))
            self._assign_ranks(fresh)
        return codes

    # ------------------------------------------------------------ str ranks
    def _rerank_dense(self) -> None:
        """Full dense re-rank of every interned value's ``str()`` form."""
        strs = sorted(set(str(v) for v in self._values))
        rank = {s: float(i) for i, s in enumerate(strs)}
        self._rank_arr = np.asarray(
            [rank[str(v)] for v in self._values], dtype=np.float64
        )
        self._sorted_strs = np.asarray(strs, dtype=object)
        self._sorted_ranks = np.asarray(
            [rank[s] for s in strs], dtype=np.float64
        )

    def _assign_ranks(self, fresh: List[Value]) -> None:
        """Extend the monotone str-rank map to newly interned values.

        Ranks only have to be *order-isomorphic* to the ``str()`` ordering
        (the clustering kernel uses them as lexsort tie-break keys), so
        fresh values are inserted fractionally between their neighbours'
        ranks.  Only the first batch (no sorted table yet) and gaps that
        would close below ``_RANK_MIN_GAP`` re-rank densely.
        """
        if self._sorted_strs is None or len(self._sorted_strs) == 0:
            self._rerank_dense()
            return

        fresh_strs = np.asarray([str(v) for v in fresh], dtype=object)
        uniq, inverse = np.unique(fresh_strs, return_inverse=True)
        pos = np.searchsorted(self._sorted_strs, uniq)
        exists = np.zeros(len(uniq), dtype=bool)
        inside = pos < len(self._sorted_strs)
        exists[inside] = self._sorted_strs[pos[inside]] == uniq[inside]

        ranks = np.empty(len(uniq), dtype=np.float64)
        ranks[exists] = self._sorted_ranks[pos[exists]]

        new_idx = np.flatnonzero(~exists)
        if len(new_idx):
            npos = pos[new_idx]
            left = np.where(
                npos > 0,
                self._sorted_ranks[np.maximum(npos - 1, 0)],
                self._sorted_ranks[0] - 2.0,
            )
            right = np.where(
                npos < len(self._sorted_ranks),
                self._sorted_ranks[np.minimum(npos, len(self._sorted_ranks) - 1)],
                self._sorted_ranks[-1] + 2.0,
            )
            # Spread runs that land in the same gap evenly across it; uniq
            # is sorted, so equal positions are consecutive.
            offset, sizes = _run_offsets(npos)
            step = (right - left) / (sizes + 1.0)
            if np.min(step) < _RANK_MIN_GAP:
                self._rerank_dense()  # covers the fresh values too
                return
            ranks[new_idx] = left + step * (offset + 1.0)
            self._sorted_strs = np.insert(self._sorted_strs, npos, uniq[new_idx])
            self._sorted_ranks = np.insert(self._sorted_ranks, npos, ranks[new_idx])

        self._rank_arr = np.concatenate((self._rank_arr, ranks[inverse]))

    # ----------------------------------------------------------- claim store
    def _item_start(self) -> np.ndarray:
        return np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(self._item_counts))
        )

    def _insert_claims(
        self,
        item: np.ndarray,
        src: np.ndarray,
        val: np.ndarray,
        granc: np.ndarray,
        keys: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insert new claims at the end of their item segments.

        Returns ``(insert_positions, final_positions, old_dest)`` — the
        original-coordinate positions (``np.insert`` semantics), the claims'
        positions in the grown store, and where each pre-existing store
        position landed (callers scatter their positional masks through it).
        All segment inserts of a day go through **one** destination-map
        computation and one allocation+scatter per column, instead of
        ``np.insert`` re-deriving the index math for every array
        (``tests/core/test_delta.py`` pins the store bit-identical to the
        ``np.insert`` reference).
        """
        if len(self._item_counts) < len(self._items):
            self._item_counts = np.concatenate(
                (
                    self._item_counts,
                    np.zeros(
                        len(self._items) - len(self._item_counts),
                        dtype=np.int64,
                    ),
                )
            )
        item_start = self._item_start()
        ins = item_start[item + 1]
        # Same-position inserts must keep the store grouped by item code: a
        # claim appended to the store's last item shares its insertion point
        # with every brand-new item's first claim, so ties break by item
        # (lexsort is stable, preserving arrival order within an item).
        order = np.lexsort((item, ins))
        ins = ins[order]
        item, src = item[order], src[order]
        val, granc, keys = val[order], granc[order], keys[order]

        old_dest, final = _scatter_insert_map(len(self._s_item), ins)
        self._s_item = _scatter_insert(self._s_item, item, old_dest, final)
        self._s_src = _scatter_insert(self._s_src, src, old_dest, final)
        self._s_val = _scatter_insert(self._s_val, val, old_dest, final)
        self._s_granc = _scatter_insert(self._s_granc, granc, old_dest, final)
        self._s_key = _scatter_insert(self._s_key, keys, old_dest, final)
        np.add.at(self._item_counts, item, 1)

        # Patch the key index: existing store positions shift by the number
        # of insertions at or before them, then the new keys slot in.
        if len(self._key_pos):
            self._key_pos = self._key_pos + np.searchsorted(
                ins, self._key_pos, side="right"
            )
        korder = np.argsort(keys, kind="stable")
        kpos = np.searchsorted(self._key_sorted, keys[korder])
        k_old, k_new = _scatter_insert_map(len(self._key_sorted), kpos)
        self._key_sorted = _scatter_insert(
            self._key_sorted, keys[korder], k_old, k_new
        )
        self._key_pos = _scatter_insert(
            self._key_pos, final[korder], k_old, k_new
        )
        return ins, final, old_dest

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Store positions for composite keys; -1 where there is no match."""
        if not len(self._key_sorted):
            return np.full(len(keys), -1, dtype=np.int64)
        idx = np.searchsorted(self._key_sorted, keys)
        idx = np.minimum(idx, len(self._key_sorted) - 1)
        pos = self._key_pos[idx]
        return np.where(self._key_sorted[idx] == keys, pos, -1)

    def _build_view(self) -> ColumnarView:
        """The union store as a ColumnarView (zero-copy over the columns)."""
        gran_table = np.asarray(self._gran_values, dtype=np.float64)
        return ColumnarView(
            items=self._items,
            sources=self._sources,
            attr_names=self._attr_names,
            attr_specs=list(self._attr_specs),
            item_attr=np.asarray(self._item_attr_list, dtype=np.int64),
            item_start=self._item_start(),
            claim_item=self._s_item,
            claim_source=self._s_src,
            claim_value=self._s_val,
            claim_numeric=self._value_numeric[self._s_val]
            if len(self._s_val)
            else np.zeros(0, dtype=np.float64),
            claim_granularity=gran_table[self._s_granc]
            if len(self._s_granc)
            else np.zeros(0, dtype=np.float64),
            values=self._values,
            value_numeric=self._value_numeric,
            value_str_rank=self._rank_arr,
        )

    # ------------------------------------------------------------ public API
    def ingest(self, dataset: Dataset) -> DayCompilation:
        """Diff a full snapshot against the stream and compile its day."""
        started = time.perf_counter()
        self._check_attributes(dataset.attributes)
        view = dataset.columnar

        attr_code = {name: i for i, name in enumerate(self._attr_names)}
        src_map = np.asarray(
            [self._intern_source(s) for s in view.sources], dtype=np.int64
        )
        item_map = np.asarray(
            [
                self._intern_item(item, attr_code[item.attribute])
                for item in view.items
            ],
            dtype=np.int64,
        )
        val_map = self._intern_values(view.values)

        u_item = item_map[view.claim_item]
        u_src = src_map[view.claim_source]
        u_val = val_map[view.claim_value]
        gran_distinct, gran_inv = np.unique(
            view.claim_granularity, return_inverse=True
        )
        gcodes = np.asarray(
            [self._intern_gran(float(g)) for g in gran_distinct], dtype=np.int64
        )
        u_granc = gcodes[gran_inv]

        keys = (
            (u_item << _ITEM_SHIFT)
            | (u_src << _SRC_SHIFT)
            | (u_val << _VAL_SHIFT)
            | u_granc
        )
        pos = self._lookup(keys)
        missing = pos < 0
        old_active = self._active
        if missing.any():
            _ins, final, old_dest = self._insert_claims(
                u_item[missing],
                u_src[missing],
                u_val[missing],
                u_granc[missing],
                keys[missing],
            )
            old_active = _scatter_insert(
                old_active, None, old_dest, final, fill=False
            )
            pos = self._lookup(keys)  # new claims are now present
        active = np.zeros(len(self._s_key), dtype=bool)
        active[pos] = True
        return self._finish_day(
            dataset.day, active, old_active, list(view.sources), started
        )

    def apply_delta(self, delta: ClaimDelta) -> DayCompilation:
        """Compile the next day from an explicit change set."""
        started = time.perf_counter()
        if self._attributes is None:
            raise FusionError(
                "apply_delta needs a prior ingest() to seed the stream"
            )
        declared = list(self._declared)
        known = set(declared)
        for meta in delta.new_sources:
            if meta.source_id not in known:
                declared.append(meta.source_id)
                known.add(meta.source_id)
                self._intern_source(meta.source_id)
        attr_code = {name: i for i, name in enumerate(self._attr_names)}

        # ---- collect target cells (adds replace, retractions remove)
        cells: List[int] = []
        for source_id, item in delta.retracted:
            if source_id not in known:
                raise SchemaError(
                    f"retraction from unknown source {source_id!r}"
                )
            src = self._source_code[source_id]
            code = self._item_code.get(item)
            if code is not None:
                cells.append((code << _SRC_BITS) | src)
        add_item = np.empty(len(delta.added), dtype=np.int64)
        add_src = np.empty(len(delta.added), dtype=np.int64)
        add_val = np.empty(len(delta.added), dtype=np.int64)
        add_granc = np.empty(len(delta.added), dtype=np.int64)
        add_values: List[Value] = []
        add_cells: List[int] = []
        for k, (source_id, item, claim) in enumerate(delta.added):
            if source_id not in known:
                raise SchemaError(f"claim from undeclared source {source_id!r}")
            if item.attribute not in attr_code:
                raise SchemaError(f"unknown attribute {item.attribute!r}")
            add_item[k] = self._intern_item(item, attr_code[item.attribute])
            add_src[k] = self._source_code[source_id]
            add_granc[k] = self._intern_gran(claim.granularity or 0.0)
            add_values.append(claim.value)
            add_cells.append((int(add_item[k]) << _SRC_BITS) | int(add_src[k]))
        if len(add_cells) != len(set(add_cells)):
            # Two adds in one cell would leave one source with two live
            # claims on one item — impossible under the snapshot model.
            raise SchemaError(
                "delta adds two claims to one (source, item) cell"
            )
        cells.extend(add_cells)
        if len(add_values):
            add_val[:] = self._intern_values(add_values)

        old_active = self._active
        active = old_active.copy()
        if cells:
            cell_targets = np.unique(np.asarray(cells, dtype=np.int64))
            store_cells = (self._s_item << _SRC_BITS) | self._s_src
            hit = np.searchsorted(cell_targets, store_cells)
            hit = np.minimum(hit, len(cell_targets) - 1)
            in_cell = cell_targets[hit] == store_cells
            active &= ~in_cell

        if len(delta.added):
            keys = (
                (add_item << _ITEM_SHIFT)
                | (add_src << _SRC_SHIFT)
                | (add_val << _VAL_SHIFT)
                | add_granc
            )
            pos = self._lookup(keys)
            missing = pos < 0
            if missing.any():
                _ins, final, old_dest = self._insert_claims(
                    add_item[missing],
                    add_src[missing],
                    add_val[missing],
                    add_granc[missing],
                    keys[missing],
                )
                old_active = _scatter_insert(
                    old_active, None, old_dest, final, fill=False
                )
                active = _scatter_insert(
                    active, None, old_dest, final, fill=False
                )
                pos = self._lookup(keys)
            active[pos] = True
        return self._finish_day(delta.day, active, old_active, declared, started)

    # ----------------------------------------------------------- compilation
    def _finish_day(
        self,
        day: str,
        active: np.ndarray,
        old_active: np.ndarray,
        declared_sources: List[str],
        started: float,
    ) -> DayCompilation:
        if not active.any():
            # Refused before any day state moves, so the stream stays on
            # its last good day; the mask keeps pace with a grown store.
            self._active = old_active
            raise FusionError(f"day {day!r} holds no active claims")
        changed = active != old_active
        n_added = int((active & ~old_active).sum())
        n_removed = int((~active & old_active).sum())

        view = self._build_view()
        attr_tol = compute_tolerances(view, active)

        n_items = len(self._items)
        dirty = np.zeros(n_items, dtype=bool)
        dirty[self._s_item[changed]] = True
        if self._prev_tol is None or self._prev_compiled is None:
            dirty[:] = True
        else:
            tol_moved = attr_tol != self._prev_tol
            if tol_moved.any():
                dirty |= tol_moved[
                    np.asarray(self._item_attr_list, dtype=np.int64)
                ]

        item_active = np.bincount(self._s_item[active], minlength=n_items) > 0
        item_was_active = (
            np.bincount(self._s_item[old_active], minlength=n_items) > 0
        )
        touched = item_active | item_was_active
        n_touched = int(touched.sum())
        n_dirty = int((dirty & touched).sum())

        full = (
            self._prev_compiled is None
            or n_touched == 0
            or (n_dirty / max(n_touched, 1)) > FULL_COMPILE_THRESHOLD
        )
        if full:
            compiled = compile_clusters(view, attr_tol, active)
        else:
            partial_mask = active & dirty[self._s_item]
            partial = compile_clusters(view, attr_tol, partial_mask)
            compiled = splice_compiled(self._prev_compiled, partial, dirty)

        source_codes = np.asarray(
            [self._source_code[s] for s in declared_sources], dtype=np.int64
        )

        self._active = active
        self._prev_compiled = compiled
        compacted = self._maybe_compact()
        self._prev_tol = attr_tol
        self._declared = list(declared_sources)
        self.days.append(day)

        stats = DayStats(
            n_active_claims=int(active.sum()),
            n_added_claims=n_added,
            n_removed_claims=n_removed,
            n_active_items=int(item_active.sum()),
            n_dirty_items=n_dirty,
            full_compile=full,
            compacted=compacted,
            ingest_seconds=time.perf_counter() - started,
        )
        return DayCompilation(
            day=day,
            view=view,
            compiled=compiled,
            attr_tol=attr_tol,
            claim_mask=active,
            sources=list(declared_sources),
            source_codes=source_codes,
            stats=stats,
        )

    # ------------------------------------------------------------- compaction
    def _maybe_compact(self) -> bool:
        """Drop inactive claims (and unreferenced values) from the store.

        High-churn streams (e.g. daily stock prices) would otherwise grow
        the union store by nearly a full snapshot per day, making the
        per-day diff slower the longer the stream runs.  Compaction keeps
        only the currently active claims; a retired claim that later
        reappears is simply re-interned.
        """
        active = self._active
        n_active = int(active.sum())
        n_inactive = len(active) - n_active
        if n_inactive <= DEFAULT_MAX_INACTIVE_RATIO * max(n_active, 1):
            return False

        keep = np.flatnonzero(active)
        self._s_item = self._s_item[keep]
        self._s_src = self._s_src[keep]
        s_val = self._s_val[keep]
        self._s_granc = self._s_granc[keep]
        self._item_counts = np.bincount(
            self._s_item, minlength=len(self._items)
        ).astype(np.int64)
        self._active = np.ones(len(keep), dtype=bool)

        # Prune the value table down to what the kept claims reference and
        # remap every structure that stores value codes.
        val_used = np.unique(s_val)
        val_remap = np.full(len(self._values), -1, dtype=np.int64)
        val_remap[val_used] = np.arange(len(val_used), dtype=np.int64)
        self._values = [self._values[int(v)] for v in val_used]
        self._value_code = {v: i for i, v in enumerate(self._values)}
        self._value_numeric = self._value_numeric[val_used]
        self._rank_arr = self._rank_arr[val_used]
        keep_strs = set(str(v) for v in self._values)
        str_keep = np.asarray(
            [s in keep_strs for s in self._sorted_strs.tolist()], dtype=bool
        ) if self._sorted_strs is not None else None
        if str_keep is not None:
            self._sorted_strs = self._sorted_strs[str_keep]
            self._sorted_ranks = self._sorted_ranks[str_keep]

        self._s_val = val_remap[s_val]
        self._s_key = (
            (self._s_item << _ITEM_SHIFT)
            | (self._s_src << _SRC_SHIFT)
            | (self._s_val << _VAL_SHIFT)
            | self._s_granc
        )
        korder = np.argsort(self._s_key, kind="stable")
        self._key_sorted = self._s_key[korder]
        self._key_pos = korder

        # Yesterday's compiled arrays reference value codes; remap them so
        # the next day's splice mixes consistently with fresh compiles.
        prev = self._prev_compiled
        self._prev_compiled = CompiledClusters(
            item_index=prev.item_index,
            item_attr=prev.item_attr,
            item_start=prev.item_start,
            cluster_item=prev.cluster_item,
            cluster_value=val_remap[prev.cluster_value],
            cluster_support=prev.cluster_support,
            claim_source=prev.claim_source,
            claim_cluster=prev.claim_cluster,
            claim_value=val_remap[prev.claim_value],
            claim_granularity=prev.claim_granularity,
        )
        return True
