"""Shared fusion framework (Section 4.1).

Every fusion method in the paper is a fixed-point iteration over two maps:

* **value votes** — from source trustworthiness to a score per candidate
  value, and
* **source trustworthiness** — from the value scores back to a per-source
  (or per source-attribute) trust figure.

:class:`FusionProblem` precomputes the snapshot into flat numpy arrays so
every method runs off the same representation: candidate values are the
tolerance buckets of Section 3.2 (*clusters*), claims are (source, cluster)
pairs, and optional evidence — value similarity edges and formatting
subsumption edges — is precomputed as sparse pair lists.

:class:`FusionMethod` holds a method's parameters, trust seeding (the
"given sampled trustworthiness" mode of Table 7) and result packaging;
concrete methods override :meth:`FusionMethod._votes` and
:meth:`FusionMethod._update_trust`.  :meth:`FusionMethod.run` is the one
cold solve: the initial state, the shared fixed point
(:func:`repro.fusion.spec.run_fixed_point`), then the packaged result.
Streams warm-start the same loop from carried trust
(:class:`repro.streaming.StreamRunner`).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.attributes import AttributeSpec, ValueKind
from repro.core.columnar import (
    ColumnarView,
    CompiledClusters,
    compile_clusters,
    compute_tolerances,
)
from repro.core.dataset import Dataset
from repro.core.records import DataItem, Value
from repro.errors import FusionError

#: Default cap on fixed-point rounds.
DEFAULT_MAX_ROUNDS = 60
#: Default L-infinity convergence threshold on the trust vector.
DEFAULT_TOLERANCE = 1e-5
#: Similarity decay scale, in units of the attribute tolerance.
SIMILARITY_SCALE = 5.0
#: Similarity edges below this weight are dropped.
SIMILARITY_FLOOR = 0.05
#: Neighbourhood (in buckets) searched for similar values.
SIMILARITY_WINDOW = 12
#: Weight of a formatting-implied partial vote.
FORMAT_WEIGHT = 0.5

#: Running count of :class:`FusionProblem` compilations in this process,
#: read by profiling harnesses that report how often a run compiles.
PROBLEM_COMPILES = 0

def resolve_engine(_engine: Optional[str] = None) -> str:
    """Always ``"numpy"``: the fixed point has one engine.

    Kept only for the environment stamp of the end-to-end benchmark
    (``perfbench/harness.py``), which records ``resolve_engine(None)`` on
    every run.
    """
    return "numpy"


class FusionProblem:
    """A snapshot compiled to flat arrays for the fusion methods.

    Attributes
    ----------
    items:
        The data items, in a fixed order.
    cluster_item:
        For every cluster (candidate value), the index of its item.
    item_start:
        Clusters of item ``i`` are ``range(item_start[i], item_start[i+1])``.
    claim_source / claim_cluster:
        One entry per (source, provided value) pair.
    sim_a / sim_b / sim_w:
        Directed value-similarity edges within an item.
    fmt_source / fmt_cluster / fmt_w:
        Formatting evidence: source partially supports a cluster whose
        representative rounds to the source's (coarser) provided value.
    """

    def __init__(self, dataset: Dataset):
        view = dataset.columnar
        attr_tol = dataset._tolerance_array()
        compiled = compile_clusters(view, attr_tol)
        self._init_from(
            view=view,
            compiled=compiled,
            sources=list(view.sources),
            source_codes=np.arange(view.n_sources, dtype=np.int64),
            attr_tol=attr_tol,
            claim_mask=None,
            dataset=dataset,
        )

    @classmethod
    def from_compiled(
        cls,
        view: ColumnarView,
        compiled: CompiledClusters,
        sources: List[str],
        source_codes: np.ndarray,
        attr_tol: np.ndarray,
        claim_mask: Optional[np.ndarray] = None,
        dataset: Optional[Dataset] = None,
    ) -> "FusionProblem":
        """Wrap an already-compiled day (delta compilation) as a problem.

        ``sources`` is the day's declared source universe — it may include
        sources with no surviving claims (their trust still participates in
        normalizations) and must cover every source appearing in
        ``compiled``.  This is how :class:`repro.core.delta.SeriesCompiler`
        days become problems without re-running any kernel.
        """
        problem = cls.__new__(cls)
        problem._init_from(
            view=view,
            compiled=compiled,
            sources=list(sources),
            source_codes=np.asarray(source_codes, dtype=np.int64),
            attr_tol=attr_tol,
            claim_mask=claim_mask,
            dataset=dataset,
        )
        return problem

    def _init_from(
        self,
        *,
        view: ColumnarView,
        compiled: CompiledClusters,
        sources: List[str],
        source_codes: np.ndarray,
        attr_tol: np.ndarray,
        claim_mask: Optional[np.ndarray],
        dataset: Optional[Dataset],
    ) -> None:
        """Populate the flat arrays from a compiled columnar kernel result."""
        global PROBLEM_COMPILES
        PROBLEM_COMPILES += 1
        self.dataset = dataset
        self._view: Optional[ColumnarView] = view
        self._claim_mask = claim_mask
        self._source_codes = np.asarray(source_codes, dtype=np.int64)
        self._attr_specs = view.attr_specs
        self._attr_tol = attr_tol

        self._item_index = compiled.item_index  # view codes of kept items
        self.items: List[DataItem] = [
            view.items[i] for i in compiled.item_index.tolist()
        ]
        self.n_items = len(self.items)
        if self.n_items == 0:
            raise FusionError("cannot fuse an empty dataset")
        self.sources = sources
        self.n_sources = len(sources)
        self.source_index = {s: i for i, s in enumerate(sources)}
        self.attributes: List[str] = list(view.attr_names)
        self.attr_index = {a: i for i, a in enumerate(self.attributes)}
        self.n_attrs = len(self.attributes)

        self.cluster_item = compiled.cluster_item
        self.cluster_support = compiled.cluster_support
        self.item_start = compiled.item_start
        self.item_attr = compiled.item_attr
        self.n_clusters = compiled.n_clusters
        # The kernel emits view-global source codes; remap to problem-local.
        remap = np.full(view.n_sources, -1, dtype=np.int64)
        remap[self._source_codes] = np.arange(self.n_sources, dtype=np.int64)
        self.claim_source = remap[compiled.claim_source]
        self.claim_cluster = compiled.claim_cluster
        self.claim_item = self.cluster_item[self.claim_cluster]
        self.claim_attr = self.item_attr[self.claim_item]
        self.n_claims = len(self.claim_source)
        self._claim_granularity = compiled.claim_granularity
        self._claim_value_code = compiled.claim_value
        self._cluster_value_code = compiled.cluster_value
        self._claim_numeric = view.value_numeric[compiled.claim_value]
        self._cluster_numeric = view.value_numeric[compiled.cluster_value]
        self._cluster_rep: Optional[List[Value]] = None

        self.claims_per_source = np.bincount(
            self.claim_source, minlength=self.n_sources
        ).astype(np.float64)
        self.providers_per_item = np.bincount(
            self.claim_item, minlength=self.n_items
        ).astype(np.float64)
        self.clusters_per_item = np.diff(self.item_start).astype(np.float64)

        self._sim: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._fmt: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._copy: Optional[CopyStructures] = None

    @property
    def cluster_rep(self) -> List[Value]:
        """Representative value of each cluster (materialized lazily)."""
        if self._cluster_rep is None:
            values = self._view.values
            self._cluster_rep = [
                values[i] for i in self._cluster_value_code.tolist()
            ]
        return self._cluster_rep

    @cluster_rep.setter
    def cluster_rep(self, reps: List[Value]) -> None:
        self._cluster_rep = reps

    # --------------------------------------------------------- source subsets
    def restrict_sources(
        self,
        source_ids: Iterable[str],
        attr_tol: Optional[np.ndarray] = None,
    ) -> "FusionProblem":
        """Compile a sub-problem over a subset of sources, zero rebuild.

        Equivalent to ``FusionProblem(dataset.restricted_to_sources(ids))``
        — tolerances, dominant values, bucketing, and cluster ordering are
        all recomputed over the surviving claims, and items left with no
        claims are dropped — but it slices the already-built columnar view
        instead of copying and re-clustering the dataset.  Restrictions
        compose: restricting an already-restricted problem intersects the
        claim masks.

        ``attr_tol`` supplies the restriction's Equation-(3) tolerances
        when the caller has already computed them (the restriction sweep
        derives every subset's medians from one shared sorted pass); it
        must equal ``compute_tolerances(view, mask)`` for the restriction.
        """
        if self._view is None:
            raise FusionError(
                "restrict_sources requires a columnar-compiled problem"
            )
        wanted = set(source_ids)
        if all(s in wanted for s in self.sources):
            return self  # full cover: the compiled problem is unchanged
        keep = [i for i, s in enumerate(self.sources) if s in wanted]
        new_sources = [self.sources[i] for i in keep]
        new_codes = self._source_codes[keep]
        view = self._view
        keep_view = np.zeros(view.n_sources, dtype=bool)
        keep_view[new_codes] = True
        mask = keep_view[view.claim_source]
        if self._claim_mask is not None:
            mask &= self._claim_mask
        if attr_tol is None:
            attr_tol = compute_tolerances(view, mask)
        compiled = compile_clusters(view, attr_tol, mask)
        problem = FusionProblem.__new__(FusionProblem)
        problem._init_from(
            view=view,
            compiled=compiled,
            sources=new_sources,
            source_codes=new_codes,
            attr_tol=attr_tol,
            claim_mask=mask,
            dataset=None,
        )
        return problem

    def spec(self, attribute: str) -> AttributeSpec:
        return self._attr_specs[self.attr_index[attribute]]

    def tolerance(self, attribute: str) -> float:
        """This problem's Equation-(3) tolerance ``tau(A)``."""
        return float(self._attr_tol[self.attr_index[attribute]])

    def values_match(self, attribute: str, a: Value, b: Value) -> bool:
        """Tolerance-aware value equality under this problem's tolerances.

        Restricted problems have no backing :class:`Dataset`; ``spec``,
        ``tolerance`` and this mirror the :class:`Dataset` methods so
        evaluation can run off the problem.
        """
        return self.spec(attribute).matches(a, b, self.tolerance(attribute))

    # ----------------------------------------------------------- lazy extras
    @property
    def similarity_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed within-item similarity edges ``(a, b, weight)``.

        ``weight = exp(-|va - vb| / (SIMILARITY_SCALE * tau))`` for numeric
        and time attributes; string values have no similarity.
        """
        if self._sim is None:
            self._sim = self._build_similarity()
        return self._sim

    def _build_similarity(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        empty = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
        k = np.diff(self.item_start)
        is_string = np.asarray(
            [spec.kind is ValueKind.STRING for spec in self._attr_specs],
            dtype=bool,
        )[self.item_attr]
        tol = self._attr_tol[self.item_attr]
        eligible = (k >= 2) & ~is_string & (tol > 0)
        if not eligible.any():
            return empty
        # All ordered within-item cluster pairs of the eligible segments,
        # generated in (item, i, j) order — the legacy loop's order.
        ks = k[eligible]
        starts = self.item_start[:-1][eligible]
        tols = tol[eligible]
        n2 = ks * ks
        total = int(n2.sum())
        pair_seg = np.repeat(np.arange(len(ks)), n2)
        offset = np.repeat(np.cumsum(n2) - n2, n2)
        within = np.arange(total, dtype=np.int64) - offset
        kk = ks[pair_seg]
        a = starts[pair_seg] + within // kk
        b = starts[pair_seg] + within % kk
        reps = self._cluster_numeric
        ra, rb = reps[a], reps[b]
        distance = np.abs(ra - rb) / tols[pair_seg]
        keep = (a != b) & (distance <= SIMILARITY_WINDOW)  # NaN compares False
        weight = np.exp(-distance[keep] / SIMILARITY_SCALE)
        strong = weight >= SIMILARITY_FLOOR
        return a[keep][strong], b[keep][strong], weight[strong]

    @property
    def format_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Formatting evidence edges ``(source, cluster, weight)``.

        A source that provides a rounded value ``v`` at granularity ``g`` is a
        partial provider (weight :data:`FORMAT_WEIGHT`) of every other
        cluster on the item whose representative rounds to ``v`` at ``g``.
        """
        if self._fmt is None:
            self._fmt = self._build_format_edges()
        return self._fmt

    def _build_format_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        empty = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
        rounded = np.flatnonzero(self._claim_granularity > 0)
        if not len(rounded):
            return empty
        own_num = self._claim_numeric[rounded]
        convertible = ~np.isnan(own_num)
        rounded, own_num = rounded[convertible], own_num[convertible]
        if not len(rounded):
            return empty
        # Pair each rounded claim with every cluster of its item, in
        # (claim, cluster) order — the legacy loop's order.
        gran = self._claim_granularity[rounded]
        own_cluster = self.claim_cluster[rounded]
        items = self.claim_item[rounded]
        counts = self.item_start[items + 1] - self.item_start[items]
        total = int(counts.sum())
        offset = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total, dtype=np.int64) - offset
        pair_claim = np.repeat(np.arange(len(rounded)), counts)
        c = self.item_start[items][pair_claim] + within
        rep = self._cluster_numeric[c]
        g = gran[pair_claim]
        subsumes = (
            np.abs(np.round(rep / g) * g - own_num[pair_claim]) <= g * 1e-9
        )  # NaN reps compare False
        keep = (c != own_cluster[pair_claim]) & subsumes
        src = self.claim_source[rounded][pair_claim[keep]]
        dst = c[keep]
        return (
            src.astype(np.int64),
            dst,
            np.full(len(dst), FORMAT_WEIGHT, dtype=np.float64),
        )

    # ------------------------------------------------- solver scratch buffers
    def scratch(self, key: str, shape, dtype=np.float64) -> np.ndarray:
        """A reusable solver buffer (allocated once per ``(key, shape)``).

        The fixed-point kernels run dozens of rounds over arrays whose
        shapes never change within a solve; routing their temporaries
        through named scratch buffers removes the per-round allocations.
        Buffers hold arbitrary garbage between uses and are **not**
        thread-safe — one solve per problem at a time, which is what every
        caller (streams, workers, the restriction sweep) already guarantees.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        bufs = self.__dict__.setdefault("_scratch_bufs", {})
        buf = bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            bufs[key] = buf
        return buf

    def _invariant(self, key: str, build) -> np.ndarray:
        cache = self.__dict__.setdefault("_invariant_cache", {})
        value = cache.get(key)
        if value is None:
            value = build()
            cache[key] = value
        return value

    @property
    def cluster_support_f(self) -> np.ndarray:
        """``cluster_support`` as float64 (cached; VOTE's per-round scores)."""
        return self._invariant(
            "support_f", lambda: self.cluster_support.astype(np.float64)
        )

    @property
    def cluster_index(self) -> np.ndarray:
        """``arange(n_clusters)`` (cached; the argmax kernel's tie-break)."""
        return self._invariant(
            "cluster_index", lambda: np.arange(self.n_clusters, dtype=np.int64)
        )

    @property
    def claim_attr_flat(self) -> np.ndarray:
        """``claim_source * n_attrs + claim_attr`` (cached; per-attr gathers)."""
        return self._invariant(
            "claim_attr_flat",
            lambda: self.claim_source * self.n_attrs + self.claim_attr,
        )

    @property
    def claims_per_source_floor(self) -> np.ndarray:
        """``max(claims_per_source, 1)`` (cached; trust-update denominators)."""
        return self._invariant(
            "claims_floor", lambda: np.maximum(self.claims_per_source, 1.0)
        )

    @property
    def claims_per_source_attr(self) -> np.ndarray:
        """Per-(source, attribute) claim counts (cached; ATTR smoothing)."""
        return self._invariant(
            "claims_attr",
            lambda: np.bincount(
                self.claim_attr_flat, minlength=self.n_sources * self.n_attrs
            ).astype(np.float64).reshape(self.n_sources, self.n_attrs),
        )

    # ------------------------------------------------------------- selection
    def argmax_per_item(self, scores: np.ndarray) -> np.ndarray:
        """Index of the best-scoring cluster of each item (first on ties)."""
        starts = self.item_start[:-1]
        n = self.n_clusters
        seg_max = np.maximum.reduceat(
            scores, starts, out=self.scratch("argmax_item", self.n_items)
        )
        # First index attaining the segment max (NaN wins, like np.argmax).
        gathered = np.take(
            seg_max, self.cluster_item,
            out=self.scratch("argmax_gather", n), mode="clip",
        )
        is_max = np.equal(
            scores, gathered, out=self.scratch("argmax_mask", n, bool)
        )
        np.logical_or(
            is_max,
            np.isnan(scores, out=self.scratch("argmax_nan", n, bool)),
            out=is_max,
        )
        candidates = self.scratch("argmax_cand", n, np.int64)
        candidates.fill(n)
        np.copyto(candidates, self.cluster_index, where=is_max)
        # The result is a fresh array: callers keep selections across rounds
        # and jobs, so it must not alias the scratch pool.
        return np.minimum.reduceat(candidates, starts)

    def selection_to_values(self, selected: np.ndarray) -> Dict[DataItem, Value]:
        reps = self.cluster_rep
        chosen = np.asarray(selected).tolist()
        return {item: reps[chosen[i]] for i, item in enumerate(self.items)}

    def trust_vector(self, trust_by_source: Dict[str, float], default: float) -> np.ndarray:
        vector = np.full(self.n_sources, default, dtype=np.float64)
        for source_id, value in trust_by_source.items():
            idx = self.source_index.get(source_id)
            if idx is not None:
                vector[idx] = value
        return vector

    # -------------------------------------------------------- copy detection
    @property
    def copy_structures(self) -> "CopyStructures":
        """Cached selection-independent structures for copy detection.

        The source-cluster membership (sparse, and packed into bitsets) and
        the pairwise ``same`` / ``shared`` overlap counts do not depend on
        the current truth selection, so AccuCopy's detections reuse them
        instead of rebuilding them from the claim arrays every round.
        """
        if self._copy is None:
            import scipy.sparse as sp

            membership = sp.csr_matrix(
                (np.ones(self.n_claims), (self.claim_source, self.claim_cluster)),
                shape=(self.n_sources, self.n_clusters),
            )
            cluster_bits = bit_rows(
                self.n_sources, self.n_clusters, self.claim_source, self.claim_cluster
            )
            item_bits = bit_rows(
                self.n_sources, self.n_items, self.claim_source, self.claim_item
            )
            self._copy = CopyStructures(
                membership=membership,
                cluster_bits=cluster_bits,
                same=pair_counts(cluster_bits),
                shared=pair_counts(item_bits),
            )
        return self._copy


@dataclass(frozen=True)
class CopyStructures:
    """Selection-independent structures shared by detection rounds."""

    membership: object  # (n_sources, n_clusters) CSR
    cluster_bits: np.ndarray  # (S, ceil(n_clusters / 64)) uint64 membership bitsets
    same: np.ndarray    # (S, S) pairs' same-cluster claim counts
    shared: np.ndarray  # (S, S) pairs' shared-item counts


#: Cap on the uint64 words one :func:`pair_counts` block ANDs at once (512 KB).
PAIR_BLOCK_WORDS = 1 << 16


def bit_rows(n_rows: int, n_bits: int, rows, cols) -> np.ndarray:
    """``(n_rows, ceil(n_bits / 64))`` uint64 bitsets, bit ``cols[k]`` of
    row ``rows[k]`` set (bit ``b`` lives in word ``b // 64``)."""
    dense = np.zeros((n_rows, -(-n_bits // 64) * 64), dtype=bool)
    dense[rows, cols] = True
    return np.packbits(dense, axis=1, bitorder="little").view(np.uint64)


def pair_counts(bits: np.ndarray) -> np.ndarray:
    """``(n, n)`` float64 counts of the bits each pair of rows shares.

    ``popcount(bits[i] & bits[j])`` summed over the words: the exact integer
    product ``A @ A.T`` of the 0/1 matrix ``A`` packed in ``bits``.  A
    :class:`~repro.core.dataset.Dataset` holds one claim per (source, item),
    so copy detection's membership matrices are 0/1.  No BLAS product runs,
    so no BLAS helper thread competes with solve workers or the server.
    """
    n, words = bits.shape
    out = np.empty((n, n))
    step = max(1, PAIR_BLOCK_WORDS // max(1, n * words))
    for start in range(0, n, step):
        block = bits[start:start + step, None, :] & bits[None, :, :]
        out[start:start + step] = np.bitwise_count(block).sum(axis=2)
    return out


@dataclass
class FusionResult:
    """Outcome of one fusion run."""

    method: str
    selected: Dict[DataItem, Value]
    trust: Dict[str, float]
    attr_trust: Optional[Dict[Tuple[str, str], float]] = None
    rounds: int = 0
    converged: bool = True
    runtime_seconds: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    def value_for(self, item: DataItem) -> Optional[Value]:
        return self.selected.get(item)


class FusionMethod(abc.ABC):
    """A fusion method: its parameters and its vote/trust kernels.

    Methods are stateless across solves; every per-solve quantity lives in
    the state dict that :func:`repro.fusion.spec.run_fixed_point` drives.
    """

    #: Registry name, e.g. ``"AccuSim"``.
    name: str = "base"
    #: Default initial trust assigned to every source.
    initial_trust: float = 0.8
    #: Whether trust is maintained per (source, attribute) pair.
    per_attribute_trust: bool = False
    #: Whether the method runs copy detection (Figure 12's timing then
    #: builds the problem's copy structures outside the timed solve).
    uses_copy_detection: bool = False

    def __init__(self, max_rounds: int = DEFAULT_MAX_ROUNDS,
                 tolerance: float = DEFAULT_TOLERANCE):
        self.max_rounds = max_rounds
        self.tolerance = tolerance

    # ------------------------------------------------------------------ API
    def run(
        self,
        data: "Dataset | FusionProblem",
        trust_seed: Optional[Dict[str, float]] = None,
        freeze_trust: bool = False,
        **kwargs,
    ) -> FusionResult:
        """Fuse a snapshot.

        Parameters
        ----------
        data:
            A :class:`Dataset` or a prebuilt :class:`FusionProblem` (reusing
            one problem across methods avoids re-clustering).
        trust_seed:
            Initial per-source trust, e.g. the sampled trustworthiness of
            Table 7's "prec w. trust" column.
        freeze_trust:
            Do not update trust: compute votes once from the seed and select
            (the paper's "no need for iteration" mode).
        """
        from repro.fusion.spec import run_fixed_point

        problem = data if isinstance(data, FusionProblem) else FusionProblem(data)
        started = time.perf_counter()
        state = self._initial_state(problem, trust_seed)
        selected, rounds, converged = run_fixed_point(
            self, problem, state, freeze_trust
        )
        return self._package(
            problem, state, selected, rounds, converged,
            time.perf_counter() - started,
        )

    # ------------------------------------------------------------ state mgmt
    def _initial_state(
        self, problem: FusionProblem, trust_seed: Optional[Dict[str, float]]
    ) -> Dict[str, np.ndarray]:
        if self.per_attribute_trust:
            trust = np.full(
                (problem.n_sources, problem.n_attrs), self.initial_trust
            )
            if trust_seed:
                base = problem.trust_vector(trust_seed, self.initial_trust)
                trust = np.repeat(base[:, None], problem.n_attrs, axis=1)
        else:
            if trust_seed:
                trust = problem.trust_vector(trust_seed, self.initial_trust)
            else:
                trust = np.full(problem.n_sources, self.initial_trust)
        return {"trust": trust}

    def _claim_trust(self, problem: FusionProblem, state: Dict[str, np.ndarray]) -> np.ndarray:
        """Per-claim trust, resolving per-attribute trust when enabled."""
        trust = state["trust"]
        if self.per_attribute_trust:
            return trust[problem.claim_source, problem.claim_attr]
        return trust[problem.claim_source]

    def _package(
        self,
        problem: FusionProblem,
        state: Dict[str, np.ndarray],
        selected: np.ndarray,
        rounds: int,
        converged: bool,
        runtime: float,
    ) -> FusionResult:
        trust = state["trust"]
        if self.per_attribute_trust:
            attr_trust = {
                (problem.sources[s], problem.attributes[a]): float(trust[s, a])
                for s in range(problem.n_sources)
                for a in range(problem.n_attrs)
            }
            flat = {
                problem.sources[s]: float(np.mean(trust[s]))
                for s in range(problem.n_sources)
            }
        else:
            attr_trust = None
            flat = {
                problem.sources[s]: float(trust[s]) for s in range(problem.n_sources)
            }
        return FusionResult(
            method=self.name,
            selected=problem.selection_to_values(selected),
            trust=flat,
            attr_trust=attr_trust,
            rounds=rounds,
            converged=converged,
            runtime_seconds=runtime,
        )

    # -------------------------------------------------------------- plumbing
    @abc.abstractmethod
    def _votes(self, problem: FusionProblem, state: Dict[str, np.ndarray]) -> np.ndarray:
        """Score every cluster given the current state.

        The returned array may be one of the problem's reusable scratch
        buffers: it is valid until the next vote/trust kernel runs on the
        same problem (exactly one fixed-point round, which is all the
        solver needs).  Callers that keep scores across kernel calls —
        diagnostics, tests comparing two runs — must ``.copy()`` them.
        """

    @abc.abstractmethod
    def _update_trust(
        self,
        problem: FusionProblem,
        state: Dict[str, np.ndarray],
        scores: np.ndarray,
        selected: np.ndarray,
    ) -> np.ndarray:
        """Recompute trust from the current scores/selection."""


def accumulate_by_source(
    problem: FusionProblem, per_claim: np.ndarray, per_attribute: bool = False
) -> np.ndarray:
    """Sum a per-claim quantity into a per-source (or per source-attr) array."""
    if per_attribute:
        flat_index = problem.claim_attr_flat
        sums = np.bincount(
            flat_index, weights=per_claim,
            minlength=problem.n_sources * problem.n_attrs,
        )
        return sums.reshape(problem.n_sources, problem.n_attrs)
    return np.bincount(
        problem.claim_source, weights=per_claim, minlength=problem.n_sources
    )


def accumulate_by_cluster(
    problem: FusionProblem, per_claim: np.ndarray
) -> np.ndarray:
    """Sum a per-claim quantity into a per-cluster array."""
    return np.bincount(
        problem.claim_cluster, weights=per_claim, minlength=problem.n_clusters
    )


def segment_sum_per_item(problem: FusionProblem, per_cluster: np.ndarray) -> np.ndarray:
    """Sum a per-cluster quantity over each item."""
    return np.bincount(
        problem.cluster_item, weights=per_cluster, minlength=problem.n_items
    )


def softmax_per_item(problem: FusionProblem, scores: np.ndarray) -> np.ndarray:
    """Per-item softmax of cluster scores (numerically stabilized).

    Clusters are grouped per item (``item_start`` segments), so the
    stabilizing max is a ``maximum.reduceat`` — bit-identical to the old
    ``maximum.at`` scatter but without its per-element dispatch — and every
    temporary lives in the problem's scratch pool.  The returned array is a
    scratch buffer: valid until the next vote kernel runs on this problem,
    which is exactly the lifetime the fixed-point round gives it.
    """
    starts = problem.item_start[:-1]
    n = problem.n_clusters
    item_max = np.maximum.reduceat(
        scores, starts, out=problem.scratch("softmax_item", problem.n_items)
    )
    shifted = problem.scratch("softmax_shifted", n)
    np.take(item_max, problem.cluster_item, out=shifted, mode="clip")
    np.subtract(scores, shifted, out=shifted)
    np.exp(shifted, out=shifted)
    denom = segment_sum_per_item(problem, shifted)
    out = problem.scratch("softmax_out", n)
    np.take(denom, problem.cluster_item, out=out, mode="clip")
    np.divide(shifted, out, out=out)
    return out
