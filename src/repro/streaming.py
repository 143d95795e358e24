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

**Sharded streaming** (``StreamRunner(shards=K)``, K > 1) splits the stream
by object key (the stable crc32 hash :func:`shard_of_object`) across K
per-shard :class:`SeriesCompiler`\\ s and solves every shard on its own:
shard-local Equation-(3) medians, trust and copy evidence, one set of
sessions per shard (fanned across workers when enabled).  Each shard's
results equal an unsharded run over that shard's slice of the stream; each
day's per-method results merge by disjoint-item union with claim-weighted
mean trust (:func:`repro.serving.merge_shard_trust`).  Sharding is the only
approximation here: the unsharded runner is the exact answer.

A single snapshot is a one-day stream: one corpus is sharded by
``StreamRunner(shards=K).push(dataset)``.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.columnar import ColumnarView
from repro.core.dataset import Dataset
from repro.core.delta import (
    ClaimDelta,
    DayCompilation,
    DayStats,
    SeriesCompiler,
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
    """A per-shard snapshot facade: exactly what ``SeriesCompiler.ingest`` reads."""

    day: str
    attributes: object
    columnar: ColumnarView


class ShardedStreamCompiler:
    """K per-shard series compilers diffing one stream's days independently.

    Items are hash-assigned to shards by object key, so each shard's claim
    universe is disjoint and its :class:`SeriesCompiler` sees exactly the
    subsequence of the stream that touches it.  Every shard's day stands
    alone: its own Equation-(3) medians, value ranks and copy counts, so a
    shard's compilation is the unsharded compile of that shard's slice of
    the stream (every source registered, only its objects' claims).
    """

    def __init__(self, n_shards: int, track_copy_structures: bool = False):
        if n_shards < 2:
            raise ConfigError(f"sharded streaming needs n_shards >= 2, got {n_shards}")
        self.n_shards = int(n_shards)
        self.compilers = [
            SeriesCompiler(track_copy_structures=track_copy_structures)
            for _ in range(self.n_shards)
        ]
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

    # --------------------------------------------------------------- the days
    def ingest(self, dataset: Dataset) -> List[DayCompilation]:
        """Diff a snapshot across the shards; one day per shard."""
        days = [
            compiler.ingest(part)
            for compiler, part in zip(
                self.compilers, self._split_snapshot(dataset)
            )
        ]
        self.days.append(dataset.day)
        return days

    def apply_delta(self, delta: ClaimDelta) -> List[DayCompilation]:
        """Apply an explicit change set across the shards."""
        days = [
            compiler.apply_delta(part)
            for compiler, part in zip(self.compilers, self._split_delta(delta))
        ]
        self.days.append(delta.day)
        return days

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


@dataclass
class StreamStep:
    """One day's outcome across every method of the stream."""

    day: str
    results: Dict[str, FusionResult]
    stats: DayStats
    compile_seconds: float
    solve_seconds: Dict[str, float] = field(default_factory=dict)
    #: Sharded (K > 1) streams also keep the raw per-shard results
    #: (shard index -> method -> result); ``results`` holds their merge.
    shard_results: Optional[Dict[int, Dict[str, FusionResult]]] = None

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + sum(self.solve_seconds.values())


class StreamRunner:
    """Sessions for several methods advancing over one shared compiler.

    With ``shards=K`` (K > 1) the stream is split by object key across a
    :class:`ShardedStreamCompiler` and every live shard gets its own
    sessions; each day's per-method results merge by disjoint-item union
    with claim-weighted mean trust (:func:`repro.serving.merge_shard_trust`).
    The unsharded runner is the one-shard case: ``self.sessions`` are shard
    0's sessions and nothing is merged.

    With ``workers > 1`` the (shard, method) solves of each day run
    concurrently: the parent diff-compiles the day once (days stay
    sequential — warm starts need day ``d-1`` before day ``d``), exports
    each live shard's problem to shared memory under one scheduler key, and
    ships each worker its session's carried trust.  Workers return raw
    trust/selection arrays and the owning sessions absorb them, so session
    state — and every number — is identical to the serial path.
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
        self._with_copy = any(
            session.spec.uses_copy_detection
            for session in self.sessions.values()
        )
        if int(shards) < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        self.n_shards = int(shards)
        self.sharded: Optional[ShardedStreamCompiler] = None
        if self.n_shards > 1:
            if compiler is not None:
                raise ConfigError(
                    "shards and an external compiler are mutually exclusive"
                )
            self.sharded = ShardedStreamCompiler(
                self.n_shards, track_copy_structures=self._with_copy
            )
            self.compiler = None
        else:
            if compiler is None:
                compiler = SeriesCompiler(track_copy_structures=self._with_copy)
            self.compiler = compiler
        #: Per-shard sessions; shards above 0 get theirs as they go live.
        self._shard_sessions: Dict[int, Dict[str, FusionSession]] = {
            0: self.sessions
        }
        self.workers = workers
        self._scheduler = None
        self.steps: List[StreamStep] = []

    # ---------------------------------------------------------------- plumbing
    def _solver(self):
        """The lazily-created per-runner scheduler (None when serial)."""
        if self.workers <= 1 or len(self.method_names) * self.n_shards < 2:
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
            return self._step([self.compiler.ingest(dataset)], started)
        return self._step(self.sharded.ingest(dataset), started)

    def push_delta(self, delta: ClaimDelta) -> StreamStep:
        """Apply an explicit claim delta and advance every session."""
        started = time.perf_counter()
        if self.sharded is None:
            return self._step([self.compiler.apply_delta(delta)], started)
        return self._step(self.sharded.apply_delta(delta), started)

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

    def _step(self, days: List[DayCompilation], started: float) -> StreamStep:
        """Solve every live (shard, method) pair of one day; merge if K > 1."""
        day_id = days[0].day
        live = [k for k, day in enumerate(days) if day.stats.n_active_claims]
        if not live:
            raise FusionError(f"day {day_id!r} holds no active claims")
        problems = {k: days[k].problem() for k in live}
        compile_seconds = time.perf_counter() - started
        pairs = [(k, name) for k in live for name in self.method_names]
        scheduler = self._solver()
        by_shard: Dict[int, Dict[str, FusionResult]] = {k: {} for k in live}
        if scheduler is None:
            for k, name in pairs:
                by_shard[k][name] = self._shard_session(k, name).step(
                    problems[k], day=day_id
                )
        else:
            from repro.parallel import MethodCall, SolveJob

            keys = {
                k: scheduler.register(
                    f"stream-shard-{k}", problems[k], with_copy=self._with_copy
                )
                for k in live
            }
            warm = {
                (k, name): self._shard_session(k, name).resume_trust(problems[k])
                for k, name in pairs
            }
            jobs = [
                SolveJob(
                    problem=keys[k],
                    calls=[
                        MethodCall(
                            name,
                            kwargs=self.method_kwargs[name],
                            warm_trust=warm[(k, name)],
                        )
                    ],
                    raw=True,
                )
                for k, name in pairs
            ]
            for (k, name), outcome in zip(pairs, scheduler.run(jobs)):
                call = outcome.calls[0]
                by_shard[k][name] = self._shard_session(k, name).absorb_step(
                    problems[k],
                    {"trust": call.trust},
                    call.selected,
                    call.rounds,
                    call.converged,
                    call.runtime_seconds,
                    day=day_id,
                    warmed=warm[(k, name)] is not None,
                )
        for k, name in pairs:
            by_shard[k][name].extras["compile"] = days[k].stats
        if self.sharded is None:
            results, stats, shard_results = by_shard[0], days[0].stats, None
        else:
            stats = ShardedStreamCompiler.merged_stats([days[k] for k in live])
            results = self._merge_shard_results(days, live, by_shard, stats)
            shard_results = by_shard
        step = StreamStep(
            day=day_id,
            results=results,
            stats=stats,
            compile_seconds=compile_seconds,
            solve_seconds={
                name: results[name].runtime_seconds for name in self.method_names
            },
            shard_results=shard_results,
        )
        self.steps.append(step)
        return step

    def _merge_shard_results(
        self, days, live, by_shard, stats: DayStats
    ) -> Dict[str, FusionResult]:
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
            results[name] = FusionResult(
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
                        "live_shards": list(live),
                    },
                    "compile": stats,
                },
            )
        return results

    @property
    def days(self) -> List[str]:
        return [step.day for step in self.steps]
