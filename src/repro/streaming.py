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
day's compilation statistics.

**Sharded streaming** (``StreamRunner(shards=K)``) splits the stream by
object key (the stable crc32 hash :func:`shard_of_object`) across K
per-shard :class:`SeriesCompiler`\\ s, so each day's diff, store insert, and
re-bucketing runs over 1/K of the corpus.  ``cross_shard="exact"`` computes
the day's Equation-(3) medians globally (two-phase compile:
:meth:`SeriesCompiler.begin_ingest` → merged medians →
:meth:`SeriesCompiler.finish`) and splices the per-shard compilations back
into arrays bit-identical to the unsharded daily compile — selections and
trust match the unsharded runner exactly.  ``cross_shard="independent"``
keeps every shard local (its own medians, trust, copy evidence): per-shard
sessions solve K smaller problems (fanned across workers when enabled) and
each day's per-method results merge by disjoint-item union with
claim-weighted mean trust (:func:`repro.serving.merge_shard_trust`).

A single snapshot is a one-day stream: one corpus is sharded by
``StreamRunner(shards=K).push(dataset)``.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import ColumnarView, CompiledClusters
from repro.core.dataset import Dataset
from repro.core.delta import (
    ClaimDelta,
    DayCompilation,
    DayStats,
    SeriesCompiler,
    concat_compiled,
)
from repro.core.records import DataItem, Value
from repro.errors import ConfigError, FusionError
from repro.fusion.base import FusionResult
from repro.fusion.registry import make_method
from repro.fusion.spec import FusionSession


def shard_of_object(object_id: str, n_shards: int) -> int:
    """Stable hash shard of one object key (crc32, process-independent)."""
    return zlib.crc32(object_id.encode("utf-8")) % n_shards


@dataclass(frozen=True)
class _ShardSlice:
    """A per-shard snapshot facade: exactly what ``begin_ingest`` reads."""

    day: str
    attributes: object
    columnar: ColumnarView


class ShardedStreamCompiler:
    """K per-shard series compilers diffing one stream's days independently.

    Items are hash-assigned to shards by object key, so each shard's claim
    universe is disjoint and its :class:`SeriesCompiler` sees exactly the
    subsequence of the stream that touches it — 1/K of the diffing, store
    growth, and dirty-item re-bucketing per day.

    In **exact** mode the runner maintains a *global* item directory (codes
    assigned in the same first-arrival order the unsharded compiler's union
    universe uses), finishes every shard under the day's global Equation-(3)
    medians, and splices the remapped per-shard compilations back in global
    item order — producing solver arrays bit-identical to the unsharded
    daily compile (claim order, cluster order, source codes: everything the
    float-summation order of the trust kernels depends on).  In
    **independent** mode each shard's day stands alone.
    """

    def __init__(
        self,
        n_shards: int,
        cross_shard: str = "exact",
        track_copy_structures: bool = False,
    ):
        if n_shards < 2:
            raise ConfigError(f"sharded streaming needs n_shards >= 2, got {n_shards}")
        if cross_shard not in ("exact", "independent"):
            raise ConfigError(f"unknown cross_shard mode {cross_shard!r}")
        self.n_shards = int(n_shards)
        self.cross_shard = cross_shard
        self.exact = cross_shard == "exact"
        self.track_copy_structures = track_copy_structures
        self.compilers = [
            SeriesCompiler(track_copy_structures=track_copy_structures)
            for _ in range(self.n_shards)
        ]
        # Global directories for the exact merge: item codes in first-arrival
        # day order (== the unsharded compiler's union codes), value codes in
        # any stable order (only the interned objects and floats matter).
        self._gitem_code: Dict[DataItem, int] = {}
        self._gitems: List[DataItem] = []
        self._gitem_attr: List[int] = []
        self._gvalue_code: Dict[Value, int] = {}
        self._gvalues: List[Value] = []
        self._gvalue_numeric: List[float] = []
        self._item_luts: List[np.ndarray] = [
            np.zeros(0, dtype=np.int64) for _ in range(self.n_shards)
        ]
        # Value luts are keyed to the *table object* they were built against:
        # a day's compiled arrays reference the value table its view was
        # built over, which compaction replaces (the old list survives on
        # the day's view) — so the lut follows the view, not the store.
        self._value_luts: List[Tuple[Optional[list], np.ndarray]] = [
            (None, np.zeros(0, dtype=np.int64)) for _ in range(self.n_shards)
        ]
        self._attr_code: Optional[Dict[str, int]] = None
        self._merged_view_cache: Optional[Tuple[int, int, ColumnarView]] = None
        #: object id -> shard memo: a stream hashes each object once, not
        #: once per day (the corpus is mostly stable day over day).
        self._obj_shard: Dict[str, int] = {}
        self.days: List[str] = []

    # ------------------------------------------------------------- splitting
    def shard_of(self, object_id: str) -> int:
        code = self._obj_shard.get(object_id)
        if code is None:
            code = shard_of_object(object_id, self.n_shards)
            self._obj_shard[object_id] = code
        return code

    def _split_snapshot(self, dataset: Dataset) -> List["_ShardSlice"]:
        """Slice one snapshot's columnar view into K per-shard views.

        One memoized hash per distinct *object* plus numpy
        masks over the claim columns — no per-claim Python loop, no
        re-built claim dicts.  Every slice keeps the **full source
        universe** (same list object, dataset order), so all K compilers
        intern sources identically and per-shard trust rows stay
        comparable (and mergeable) across shards.  Items and values are
        restricted to the shard; value codes are re-densified, which is
        unobservable downstream (only the interned objects, their float
        forms, and the order-isomorphic str ranks matter).
        """
        view = dataset.columnar
        shard_of = self.shard_of
        codes = np.fromiter(
            (shard_of(item.object_id) for item in view.items),
            dtype=np.int64,
            count=len(view.items),
        )
        slices = []
        for k in range(self.n_shards):
            item_positions = np.flatnonzero(codes == k)
            item_lut = np.full(len(view.items), -1, dtype=np.int64)
            item_lut[item_positions] = np.arange(
                len(item_positions), dtype=np.int64
            )
            mask = item_lut[view.claim_item] >= 0
            claim_item = item_lut[view.claim_item[mask]]
            global_values = view.claim_value[mask]
            referenced = np.unique(global_values)
            value_lut = np.full(len(view.values), -1, dtype=np.int64)
            value_lut[referenced] = np.arange(len(referenced), dtype=np.int64)
            counts = np.bincount(claim_item, minlength=len(item_positions))
            shard_view = ColumnarView(
                items=[view.items[int(i)] for i in item_positions],
                sources=view.sources,
                attr_names=view.attr_names,
                attr_specs=view.attr_specs,
                item_attr=view.item_attr[item_positions],
                item_start=np.concatenate((
                    np.zeros(1, dtype=np.int64),
                    np.cumsum(counts, dtype=np.int64),
                )),
                claim_item=claim_item,
                claim_source=view.claim_source[mask],
                claim_value=value_lut[global_values],
                claim_numeric=view.claim_numeric[mask],
                claim_granularity=view.claim_granularity[mask],
                values=[view.values[int(c)] for c in referenced],
                value_numeric=view.value_numeric[referenced],
                value_str_rank=view.value_str_rank[referenced],
            )
            slices.append(
                _ShardSlice(dataset.day, dataset.attributes, shard_view)
            )
        return slices

    def _split_delta(self, delta: ClaimDelta) -> List[ClaimDelta]:
        added: List[List[tuple]] = [[] for _ in range(self.n_shards)]
        retracted: List[List[tuple]] = [[] for _ in range(self.n_shards)]
        for entry in delta.added:
            added[self.shard_of(entry[1].object_id)].append(entry)
        for source_id, item in delta.retracted:
            retracted[self.shard_of(item.object_id)].append((source_id, item))
        return [
            ClaimDelta(
                day=delta.day,
                added=tuple(added[k]),
                retracted=tuple(retracted[k]),
                new_sources=delta.new_sources,
            )
            for k in range(self.n_shards)
        ]

    # ----------------------------------------------------- global directories
    def _gintern_item(self, item: DataItem) -> None:
        if item not in self._gitem_code:
            self._gitem_code[item] = len(self._gitems)
            self._gitems.append(item)
            self._gitem_attr.append(self._attr_code[item.attribute])

    def _gintern_value(self, value: Value, numeric: float) -> int:
        code = self._gvalue_code.get(value)
        if code is None:
            code = len(self._gvalues)
            self._gvalue_code[value] = code
            self._gvalues.append(value)
            self._gvalue_numeric.append(numeric)
        return code

    def _item_lut(self, k: int) -> np.ndarray:
        """Shard ``k``'s local→global item codes (items are never re-coded)."""
        lut = self._item_luts[k]
        items = self.compilers[k].store_items
        if len(lut) < len(items):
            tail = np.asarray(
                [self._gitem_code[item] for item in items[len(lut):]],
                dtype=np.int64,
            )
            lut = np.concatenate((lut, tail))
            self._item_luts[k] = lut
        return lut

    def _value_lut(self, k: int, view: ColumnarView) -> np.ndarray:
        """Shard ``k``'s local→global value codes for one day's view table."""
        table, lut = self._value_luts[k]
        values, numeric = view.values, view.value_numeric
        if table is not values:
            # New table object (first day, or the store compacted since):
            # rebuild against the day's own value table.
            lut = np.asarray(
                [
                    self._gintern_value(value, float(numeric[i]))
                    for i, value in enumerate(values)
                ],
                dtype=np.int64,
            )
        elif len(lut) < len(values):
            tail = np.asarray(
                [
                    self._gintern_value(values[i], float(numeric[i]))
                    for i in range(len(lut), len(values))
                ],
                dtype=np.int64,
            )
            lut = np.concatenate((lut, tail))
        self._value_luts[k] = (values, lut)
        return lut

    # --------------------------------------------------------------- the days
    def ingest(self, dataset: Dataset):
        """Diff a snapshot across the shards; returns the day (see _finish)."""
        if self._attr_code is None:
            self._attr_code = {
                name: i for i, name in enumerate(dataset.attributes.names)
            }
        if self.exact:
            for item in dataset.items:
                self._gintern_item(item)
        parts = self._split_snapshot(dataset)
        pendings = [
            compiler.begin_ingest(part)
            for compiler, part in zip(self.compilers, parts)
        ]
        return self._finish(pendings, dataset.day)

    def apply_delta(self, delta: ClaimDelta):
        """Apply an explicit change set across the shards."""
        if self._attr_code is None:
            raise FusionError(
                "apply_delta needs a prior ingest() to seed the stream"
            )
        if self.exact:
            for _source_id, item, _claim in delta.added:
                if item.attribute not in self._attr_code:
                    continue  # the shard compiler raises the schema error
                self._gintern_item(item)
        parts = self._split_delta(delta)
        pendings = [
            compiler.begin_delta(part)
            for compiler, part in zip(self.compilers, parts)
        ]
        return self._finish(pendings, delta.day)

    def _finish(self, pendings, day: str):
        attr_tol = None
        if self.exact:
            buckets = [
                compiler.pending_magnitudes(pending)
                for compiler, pending in zip(self.compilers, pendings)
            ]
            attr_tol = self.compilers[0].global_tolerances(buckets)
        days = [
            compiler.finish(pending, attr_tol=attr_tol)
            for compiler, pending in zip(self.compilers, pendings)
        ]
        self.days.append(day)
        if not self.exact:
            return days
        return self._merge(days, day, attr_tol)

    # --------------------------------------------------------- the exact merge
    @staticmethod
    def merged_stats(days: Sequence[DayCompilation]) -> DayStats:
        return DayStats(
            n_active_claims=sum(d.stats.n_active_claims for d in days),
            n_added_claims=sum(d.stats.n_added_claims for d in days),
            n_removed_claims=sum(d.stats.n_removed_claims for d in days),
            n_active_items=sum(d.stats.n_active_items for d in days),
            n_dirty_items=sum(d.stats.n_dirty_items for d in days),
            full_compile=any(d.stats.full_compile for d in days),
            compacted=any(d.stats.compacted for d in days),
            ingest_seconds=sum(d.stats.ingest_seconds for d in days),
        )

    def _remap(self, k: int, day: DayCompilation) -> CompiledClusters:
        """Shard-local item/value codes → global codes (structure untouched)."""
        compiled = day.compiled
        item_lut = self._item_lut(k)
        value_lut = self._value_lut(k, day.view)
        return CompiledClusters(
            item_index=item_lut[compiled.item_index],
            item_attr=compiled.item_attr,
            item_start=compiled.item_start,
            cluster_item=compiled.cluster_item,
            cluster_value=value_lut[compiled.cluster_value],
            cluster_support=compiled.cluster_support,
            claim_source=compiled.claim_source,
            claim_cluster=compiled.claim_cluster,
            claim_value=value_lut[compiled.claim_value],
            claim_granularity=compiled.claim_granularity,
        )

    def _merged_view(self) -> ColumnarView:
        """A solver-grade view over the global tables.

        The claim columns are empty: a merged day is already compiled, and
        nothing on the solve/serve path reads them (``restrict_sources`` and
        re-compilation are the documented exceptions — use an unsharded
        runner for those).  The view is cached and rebuilt only when the
        global directories grew, so a low-churn day pays nothing here.
        """
        key = (len(self._gitems), len(self._gvalues))
        if (
            self._merged_view_cache is not None
            and self._merged_view_cache[:2] == key
        ):
            return self._merged_view_cache[2]
        n = len(self._gitems)
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0, dtype=np.float64)
        view = ColumnarView(
            items=self._gitems,
            sources=self.compilers[0].store_sources,
            attr_names=list(self._attr_code),
            attr_specs=list(self.compilers[0]._attr_specs),
            item_attr=np.asarray(self._gitem_attr, dtype=np.int64),
            item_start=np.zeros(n + 1, dtype=np.int64),
            claim_item=empty_i,
            claim_source=empty_i,
            claim_value=empty_i,
            claim_numeric=empty_f,
            claim_granularity=empty_f,
            values=self._gvalues,
            value_numeric=np.asarray(self._gvalue_numeric, dtype=np.float64),
            value_str_rank=np.zeros(len(self._gvalues), dtype=np.float64),
        )
        self._merged_view_cache = (key[0], key[1], view)
        return view

    def _merge(
        self, days: List[DayCompilation], day: str, attr_tol: np.ndarray
    ) -> DayCompilation:
        parts = [
            self._remap(k, days[k])
            for k in range(self.n_shards)
            if len(days[k].compiled.item_index)
        ]
        if not parts:
            raise FusionError(f"day {day!r} holds no active claims")
        # One K-way segment merge (single stable sort over global item
        # codes) instead of K-1 pairwise splices rebuilding the result.
        merged = concat_compiled(parts)

        pair_counts = None
        if self.track_copy_structures:
            sames, shareds = zip(*(d.pair_counts for d in days))
            pair_counts = (sum(sames), sum(shareds))
        return DayCompilation(
            day=day,
            view=self._merged_view(),
            compiled=merged,
            attr_tol=attr_tol,
            claim_mask=None,
            sources=list(days[0].sources),
            source_codes=days[0].source_codes,
            stats=self.merged_stats(days),
            pair_counts=pair_counts,
        )


@dataclass
class StreamStep:
    """One day's outcome across every method of the stream."""

    day: str
    results: Dict[str, FusionResult]
    stats: DayStats
    compile_seconds: float
    solve_seconds: Dict[str, float] = field(default_factory=dict)
    #: Independent-mode sharded streams also keep the raw per-shard results
    #: (shard index -> method -> result); ``results`` holds their merge.
    shard_results: Optional[Dict[int, Dict[str, FusionResult]]] = None

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + sum(self.solve_seconds.values())


class StreamRunner:
    """Sessions for several methods advancing over one shared compiler.

    With ``workers > 1`` the methods of each day solve concurrently: the
    parent diff-compiles the day once (days stay sequential — warm starts
    need day ``d-1`` before day ``d``), exports the compiled problem to
    shared memory under one scheduler key, and ships each worker its
    method's carried trust.  Workers return raw trust/selection arrays and
    the owning sessions absorb them, so session state — and every number —
    is identical to the serial path.
    """

    def __init__(
        self,
        method_names: Sequence[str],
        method_kwargs: Optional[Dict[str, dict]] = None,
        *,
        warm_start: bool = True,
        compiler: Optional[SeriesCompiler] = None,
        workers: int = 0,
        shards: int = 1,
        cross_shard: str = "exact",
    ):
        self.method_names = list(method_names)
        self.method_kwargs = {
            name: dict((method_kwargs or {}).get(name, {}))
            for name in self.method_names
        }
        self.warm_start = warm_start
        self.sessions: Dict[str, FusionSession] = {}
        for name in self.method_names:
            self.sessions[name] = FusionSession(
                make_method(name, **self.method_kwargs[name]),
                warm_start=warm_start,
            )
        # The session spec is the single source of truth for whether a
        # method runs copy detection (the registry's `copying` column is
        # Table 6 rendering data).
        track_copy = any(
            session.spec.uses_copy_detection
            for session in self.sessions.values()
        )
        if cross_shard not in ("exact", "independent"):
            raise ConfigError(f"unknown cross_shard mode {cross_shard!r}")
        if int(shards) < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        self.n_shards = int(shards)
        self.cross_shard = cross_shard
        self.sharded: Optional[ShardedStreamCompiler] = None
        if self.n_shards > 1:
            if compiler is not None:
                raise ConfigError(
                    "shards and an external compiler are mutually exclusive"
                )
            self.sharded = ShardedStreamCompiler(
                self.n_shards,
                cross_shard=cross_shard,
                track_copy_structures=track_copy,
            )
            self.compiler = None
        else:
            if compiler is None:
                compiler = SeriesCompiler(track_copy_structures=track_copy)
            self.compiler = compiler
        #: Independent-mode per-shard sessions, created as shards go live.
        self._shard_sessions: Dict[int, Dict[str, FusionSession]] = {}
        self.workers = workers
        self._scheduler = None
        self.steps: List[StreamStep] = []

    # ---------------------------------------------------------------- plumbing
    def _solver(self):
        """The lazily-created per-runner scheduler (None when serial)."""
        jobs_per_day = len(self.method_names)
        if self.sharded is not None and not self.sharded.exact:
            jobs_per_day *= self.n_shards
        if self.workers <= 1 or jobs_per_day < 2:
            return None
        if self._scheduler is None:
            from repro.parallel import SolveScheduler

            scheduler = SolveScheduler(workers=self.workers)
            if not scheduler.parallel:
                # No usable shared memory on this platform: remember the
                # decision (workers=1) so we don't re-probe every day.
                scheduler.close()
                self.workers = 1
                return None
            self._scheduler = scheduler
        return self._scheduler

    def close(self) -> None:
        """Release the worker pool and shared segments (if any)."""
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None

    def __enter__(self) -> "StreamRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- stepping
    def push(self, dataset: Dataset) -> StreamStep:
        """Ingest a full daily snapshot and advance every session."""
        started = time.perf_counter()
        if self.sharded is None:
            return self._step(self.compiler.ingest(dataset), started)
        outcome = self.sharded.ingest(dataset)
        if self.sharded.exact:
            return self._step(outcome, started)
        return self._step_shards(outcome, started)

    def push_delta(self, delta: ClaimDelta) -> StreamStep:
        """Apply an explicit claim delta and advance every session."""
        started = time.perf_counter()
        if self.sharded is None:
            return self._step(self.compiler.apply_delta(delta), started)
        outcome = self.sharded.apply_delta(delta)
        if self.sharded.exact:
            return self._step(outcome, started)
        return self._step_shards(outcome, started)

    def _step(self, day: DayCompilation, started: float) -> StreamStep:
        problem = day.problem()
        compile_seconds = time.perf_counter() - started
        results: Dict[str, FusionResult] = {}
        solve_seconds: Dict[str, float] = {}
        scheduler = self._solver()
        if scheduler is not None:
            results = self._step_parallel(scheduler, problem, day)
            solve_seconds = {
                name: results[name].runtime_seconds for name in self.method_names
            }
        else:
            for name in self.method_names:
                result = self.sessions[name].step(problem, day=day.day)
                result.extras["compile"] = day.stats
                results[name] = result
                solve_seconds[name] = result.runtime_seconds
        step = StreamStep(
            day=day.day,
            results=results,
            stats=day.stats,
            compile_seconds=compile_seconds,
            solve_seconds=solve_seconds,
        )
        self.steps.append(step)
        return step

    # -------------------------------------------- independent sharded stepping
    def _shard_session(self, shard: int, name: str) -> FusionSession:
        sessions = self._shard_sessions.setdefault(shard, {})
        session = sessions.get(name)
        if session is None:
            session = FusionSession(
                make_method(name, **self.method_kwargs[name]),
                warm_start=self.warm_start,
            )
            sessions[name] = session
        return session

    def _step_shards(
        self, days: List[DayCompilation], started: float
    ) -> StreamStep:
        """Advance per-shard sessions on an independent-mode sharded day."""
        live = [
            k for k, day in enumerate(days) if day.stats.n_active_claims > 0
        ]
        if not live:
            raise FusionError("day holds no active claims in any shard")
        problems = {k: days[k].problem() for k in live}
        compile_seconds = time.perf_counter() - started
        day_id = days[0].day
        scheduler = self._solver()
        by_shard: Dict[int, Dict[str, FusionResult]] = {}
        if scheduler is not None:
            by_shard = self._solve_shards_parallel(
                scheduler, problems, days, day_id
            )
        else:
            for k in live:
                results_k: Dict[str, FusionResult] = {}
                for name in self.method_names:
                    result = self._shard_session(k, name).step(
                        problems[k], day=day_id
                    )
                    result.extras["compile"] = days[k].stats
                    results_k[name] = result
                by_shard[k] = results_k
        results, solve_seconds = self._merge_shard_results(
            days, live, by_shard
        )
        step = StreamStep(
            day=day_id,
            results=results,
            stats=ShardedStreamCompiler.merged_stats([days[k] for k in live]),
            compile_seconds=compile_seconds,
            solve_seconds=solve_seconds,
        )
        step.shard_results = by_shard
        self.steps.append(step)
        return step

    def _solve_shards_parallel(
        self, scheduler, problems, days, day_id
    ) -> Dict[int, Dict[str, FusionResult]]:
        """Fan the (shard, method) solves of one day across the pool."""
        from repro.parallel import MethodCall, SolveJob

        with_copy = any(
            self.sessions[name].spec.uses_copy_detection
            for name in self.method_names
        )
        live = sorted(problems)
        warm: Dict[tuple, object] = {}
        jobs = []
        for k in live:
            key = scheduler.register(
                f"stream-shard-{k}", problems[k], with_copy=with_copy
            )
            for name in self.method_names:
                warm[(k, name)] = self._shard_session(k, name).resume_trust(
                    problems[k]
                )
                jobs.append(
                    SolveJob(
                        problem=key,
                        calls=[
                            MethodCall(
                                name,
                                kwargs=self.method_kwargs[name],
                                warm_trust=warm[(k, name)],
                            )
                        ],
                        raw=True,
                        tag=(k, name),
                    )
                )
        outcomes = scheduler.run(jobs)
        by_shard: Dict[int, Dict[str, FusionResult]] = {}
        for job, outcome in zip(jobs, outcomes):
            k, name = job.tag
            call = outcome.calls[0]
            result = self._shard_session(k, name).absorb_step(
                problems[k],
                {"trust": call.trust},
                call.selected,
                call.rounds,
                call.converged,
                call.runtime_seconds,
                day=day_id,
                warmed=warm[(k, name)] is not None,
            )
            result.extras["compile"] = days[k].stats
            by_shard.setdefault(k, {})[name] = result
        return by_shard

    def _merge_shard_results(
        self, days, live, by_shard
    ) -> Tuple[Dict[str, FusionResult], Dict[str, float]]:
        """Union the shard selections; merge trust by claim-weighted mean."""
        from repro.serving import merge_shard_trust

        weights: List[Dict[str, float]] = []
        for k in live:
            day = days[k]
            counts = np.bincount(
                day.compiled.claim_source,
                minlength=int(day.source_codes.max()) + 1 if len(day.source_codes) else 0,
            )
            weights.append({
                source: float(counts[code])
                for source, code in zip(day.sources, day.source_codes)
            })
        results: Dict[str, FusionResult] = {}
        solve_seconds: Dict[str, float] = {}
        for name in self.method_names:
            selected: Dict[DataItem, Value] = {}
            rounds = 0
            converged = True
            runtime = 0.0
            for k in live:
                result = by_shard[k][name]
                selected.update(result.selected)
                rounds = max(rounds, result.rounds)
                converged = converged and result.converged
                runtime += result.runtime_seconds
            trust = merge_shard_trust(
                [by_shard[k][name].trust for k in live], weights
            )
            merged = FusionResult(
                method=name,
                selected=selected,
                trust=trust,
                rounds=rounds,
                converged=converged,
                runtime_seconds=runtime,
                extras={
                    "day": days[live[0]].day,
                    "sharded": {
                        "n_shards": self.n_shards,
                        "cross_shard": "independent",
                        "live_shards": list(live),
                    },
                },
            )
            merged.extras["compile"] = ShardedStreamCompiler.merged_stats(
                [days[k] for k in live]
            )
            results[name] = merged
            solve_seconds[name] = runtime
        return results, solve_seconds

    def _step_parallel(
        self, scheduler, problem, day: DayCompilation
    ) -> Dict[str, FusionResult]:
        """Solve one day's methods concurrently; sessions absorb the outcomes."""
        from repro.parallel import MethodCall, SolveJob

        scheduler.register(
            "stream-day",
            problem,
            with_copy=any(
                self.sessions[name].spec.uses_copy_detection
                for name in self.method_names
            ),
        )
        warm: Dict[str, object] = {
            name: self.sessions[name].resume_trust(problem)
            for name in self.method_names
        }
        jobs = [
            SolveJob(
                problem="stream-day",
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
        outcomes = scheduler.run(jobs)
        results: Dict[str, FusionResult] = {}
        for name, outcome in zip(self.method_names, outcomes):
            call = outcome.calls[0]
            result = self.sessions[name].absorb_step(
                problem,
                {"trust": call.trust},
                call.selected,
                call.rounds,
                call.converged,
                call.runtime_seconds,
                day=day.day,
                warmed=warm[name] is not None,
            )
            result.extras["compile"] = day.stats
            results[name] = result
        return results

    @property
    def days(self) -> List[str]:
        return [step.day for step in self.steps]
