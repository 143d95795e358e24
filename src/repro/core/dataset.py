"""The central claim-matrix container: one snapshot of one domain.

A :class:`Dataset` holds everything collected on one day for one domain
(Section 2.2): source metadata, the global attribute table, and the sparse
claim matrix ``(data item, source) -> Claim``.  It lazily computes the
per-attribute tolerances of Equation (3) and the per-item value clusterings
of Section 3.2, which every profiling measure and fusion method consumes.

Datasets are append-only while being built (by ``repro.datagen``) and are
treated as immutable afterwards; ``freeze()`` enforces that and enables the
caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.attributes import AttributeSpec, AttributeTable
from repro.core.columnar import (
    ColumnarView,
    CompiledClusters,
    build_view,
    compile_clusters,
    compute_tolerances,
    materialize_clusterings,
)
from repro.core.records import Claim, DataItem, SourceMeta, Value
from repro.core.tolerance import ItemClustering, attribute_tolerance, cluster_claims
from repro.errors import SchemaError


@dataclass
class Dataset:
    """One snapshot (one day) of claims from every source of a domain."""

    domain: str
    day: str
    attributes: AttributeTable
    sources: Dict[str, SourceMeta] = field(default_factory=dict)

    _by_item: Dict[DataItem, Dict[str, Claim]] = field(default_factory=dict)
    _by_source: Dict[str, Dict[DataItem, Claim]] = field(default_factory=dict)
    _objects: Set[str] = field(default_factory=set)
    _frozen: bool = False
    _tolerances: Optional[Dict[str, float]] = None
    _clusterings: Optional[Dict[DataItem, ItemClustering]] = None
    _columnar: Optional[ColumnarView] = field(default=None, repr=False)
    _source_ids: Optional[List[str]] = field(default=None, repr=False)
    _num_claims: Optional[int] = None

    # ------------------------------------------------------------------ build
    def add_source(self, meta: SourceMeta) -> None:
        if self._frozen:
            raise SchemaError("dataset is frozen")
        if meta.source_id in self.sources:
            raise SchemaError(f"duplicate source {meta.source_id!r}")
        self.sources[meta.source_id] = meta
        self._by_source.setdefault(meta.source_id, {})

    def add_claim(self, source_id: str, item: DataItem, claim: Claim) -> None:
        if self._frozen:
            raise SchemaError("dataset is frozen")
        if source_id not in self.sources:
            raise SchemaError(f"unknown source {source_id!r}")
        if item.attribute not in self.attributes:
            raise SchemaError(f"unknown attribute {item.attribute!r}")
        self._by_item.setdefault(item, {})[source_id] = claim
        self._by_source[source_id][item] = claim
        self._objects.add(item.object_id)

    def add_claims(self, source_id: str, claims: Dict[DataItem, Claim]) -> None:
        """Insert one source's claims in order, as repeated ``add_claim``
        calls would, after validating all of them up front."""
        if self._frozen:
            raise SchemaError("dataset is frozen")
        if source_id not in self.sources:
            raise SchemaError(f"unknown source {source_id!r}")
        for attribute in dict.fromkeys(item.attribute for item in claims):
            if attribute not in self.attributes:
                raise SchemaError(f"unknown attribute {attribute!r}")
        by_item = self._by_item
        for item, claim in claims.items():
            cell = by_item.get(item)
            if cell is None:
                by_item[item] = {source_id: claim}
            else:
                cell[source_id] = claim
        self._by_source[source_id].update(claims)
        self._objects.update(item.object_id for item in claims)

    def freeze(self) -> "Dataset":
        """Mark the snapshot immutable, enabling the derived-data caches.

        The columnar claim view is built lazily on first use and cached from
        then on (building it here eagerly would tax every daily snapshot and
        ``without_sources`` clone, most of which are only read through the
        dict views).
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------ views
    @property
    def columnar(self) -> ColumnarView:
        """The snapshot's claims as flat numpy columns (cached once frozen).

        Every vectorized kernel — tolerances, bulk clustering, fusion-problem
        compilation, source subsetting — runs off this view instead of
        re-walking the claim dicts.
        """
        if self._columnar is not None:
            return self._columnar
        view = build_view(self._by_item, self.sources, self.attributes)
        if self._frozen:
            self._columnar = view
        return view

    @property
    def source_ids(self) -> List[str]:
        if not self._frozen:
            return list(self.sources)
        if self._source_ids is None:
            self._source_ids = list(self.sources)
        return list(self._source_ids)  # copy: callers may sort/mutate

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def objects(self) -> Set[str]:
        return self._objects

    @property
    def num_objects(self) -> int:
        return len(self._objects)

    @property
    def items(self) -> Iterable[DataItem]:
        return self._by_item.keys()

    @property
    def num_items(self) -> int:
        return len(self._by_item)

    @property
    def num_claims(self) -> int:
        if not self._frozen:
            return sum(len(claims) for claims in self._by_item.values())
        if self._num_claims is None:
            self._num_claims = sum(
                len(claims) for claims in self._by_item.values()
            )
        return self._num_claims

    def claims_on(self, item: DataItem) -> Dict[str, Claim]:
        """All claims on one data item, keyed by source id."""
        return self._by_item.get(item, {})

    def claims_by(self, source_id: str) -> Dict[DataItem, Claim]:
        """All claims provided by one source."""
        if source_id not in self.sources:
            raise SchemaError(f"unknown source {source_id!r}")
        return self._by_source[source_id]

    def value_of(self, source_id: str, item: DataItem) -> Optional[Value]:
        claim = self._by_item.get(item, {}).get(source_id)
        return claim.value if claim is not None else None

    def spec(self, attribute: str) -> AttributeSpec:
        return self.attributes[attribute]

    def iter_claims(self) -> Iterator[Tuple[DataItem, str, Claim]]:
        for item, claims in self._by_item.items():
            for source_id, claim in claims.items():
                yield item, source_id, claim

    # --------------------------------------------------------------- derived
    def tolerance(self, attribute: str) -> float:
        """Absolute tolerance ``tau(A)`` for an attribute (Equation 3)."""
        if self._tolerances is None:
            self._tolerances = self._compute_tolerances()
        if attribute not in self.attributes:
            raise SchemaError(f"unknown attribute {attribute!r}")
        return self._tolerances.get(attribute, 0.0)

    def _compute_tolerances(self) -> Dict[str, float]:
        if self._frozen:
            view = self.columnar
            per_attr = compute_tolerances(view)
            return dict(zip(view.attr_names, per_attr.tolist()))
        return self._compute_tolerances_python()

    def _compute_tolerances_python(self) -> Dict[str, float]:
        values_by_attr: Dict[str, List[float]] = {}
        for item, claims in self._by_item.items():
            spec = self.attributes[item.attribute]
            if not (spec.kind.is_numeric):
                continue
            bucket = values_by_attr.setdefault(item.attribute, [])
            for claim in claims.values():
                try:
                    bucket.append(float(claim.value))  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    continue
        tolerances: Dict[str, float] = {}
        for spec in self.attributes:
            tolerances[spec.name] = attribute_tolerance(
                spec, values_by_attr.get(spec.name, [])
            )
        return tolerances

    def clustering(self, item: DataItem) -> ItemClustering:
        """The bucketed value clustering of one item (cached once frozen).

        On a frozen dataset the first request compiles *every* item's
        clustering in one vectorized pass over the columnar view; later
        requests are dict lookups.  Items the vectorized kernel cannot handle
        (non-numeric values under a bucketed attribute) fall back to the
        per-item Python path, preserving the legacy behaviour.
        """
        if self._clusterings is None:
            self._clusterings = {}
            compiled = self._compiled_clusters()
            if compiled is not None:
                self._clusterings = materialize_clusterings(
                    self.columnar, compiled
                )
        cached = self._clusterings.get(item)
        if cached is not None:
            return cached
        spec = self.attributes[item.attribute]
        clustering = cluster_claims(
            self.claims_on(item), spec, self.tolerance(item.attribute)
        )
        if self._frozen:
            self._clusterings[item] = clustering
        return clustering

    def dominant_values(self, items: Iterable[DataItem]) -> Dict[DataItem, Value]:
        """``clustering(item).dominant.representative`` of each given item
        that has claims, in ``items`` order.

        On a frozen dataset the values are read off the first cluster of
        each item in one :func:`compile_clusters` pass, and nothing is
        cached per item.  Where that kernel cannot bucket the claims, this
        falls back to :meth:`clustering`, as that method does.
        """
        compiled = self._compiled_clusters()
        if compiled is None:
            dominant: Dict[DataItem, Value] = {}
            for item in items:
                clusters = self.clustering(item).clusters
                if clusters:
                    dominant[item] = clusters[0].representative
            return dominant
        view = self.columnar
        first = compiled.cluster_value[compiled.item_start[:-1]]
        by_item = {
            view.items[code]: view.values[value]
            for code, value in zip(compiled.item_index.tolist(), first.tolist())
        }
        return {item: by_item[item] for item in items if item in by_item}

    def _compiled_clusters(self) -> Optional[CompiledClusters]:
        """Every item's clusters from the vectorized kernel, or ``None`` when
        the dataset is not frozen or the kernel cannot handle its claims
        (non-numeric values under a bucketed attribute); the per-item path
        then reproduces the legacy behaviour, error included."""
        if not self._frozen:
            return None
        try:
            return compile_clusters(self.columnar, self._tolerance_array())
        except ValueError:
            return None

    def _tolerance_array(self) -> np.ndarray:
        """Tolerances aligned with the columnar view's attribute order."""
        if self._tolerances is None:
            self._tolerances = self._compute_tolerances()
        return np.asarray(
            [self._tolerances[name] for name in self.attributes.names],
            dtype=np.float64,
        )

    def values_match(self, attribute: str, a: Value, b: Value) -> bool:
        """Tolerance-aware equality of two values of one attribute."""
        spec = self.attributes[attribute]
        return spec.matches(a, b, self.tolerance(attribute))

    # ------------------------------------------------------------ mutation-ish
    def without_sources(self, excluded: Iterable[str]) -> "Dataset":
        """A copy of this snapshot with some sources (e.g. copiers) removed."""
        excluded_set = set(excluded)
        clone = Dataset(domain=self.domain, day=self.day, attributes=self.attributes)
        for source_id, meta in self.sources.items():
            if source_id not in excluded_set:
                clone.add_source(meta)
        for item, claims in self._by_item.items():
            for source_id, claim in claims.items():
                if source_id not in excluded_set:
                    clone.add_claim(source_id, item, claim)
        return clone.freeze()

    def restricted_to_sources(self, kept: Iterable[str]) -> "Dataset":
        """A copy containing only the given sources (Figure 9 prefixes)."""
        kept_set = set(kept)
        excluded = [s for s in self.sources if s not in kept_set]
        return self.without_sources(excluded)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset({self.domain!r}, day={self.day!r}, sources={self.num_sources}, "
            f"objects={self.num_objects}, items={self.num_items}, claims={self.num_claims})"
        )


@dataclass
class DatasetSeries:
    """A sequence of daily snapshots of one domain (the month of data)."""

    domain: str
    snapshots: List[Dataset] = field(default_factory=list)
    _day_index: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )

    def add(self, dataset: Dataset) -> None:
        if dataset.domain != self.domain:
            raise SchemaError(
                f"snapshot domain {dataset.domain!r} != series domain {self.domain!r}"
            )
        self.snapshots.append(dataset)
        self._day_index = None  # rebuilt lazily on next lookup

    @property
    def days(self) -> List[str]:
        return [snapshot.day for snapshot in self.snapshots]

    def __iter__(self) -> Iterator[Dataset]:
        return iter(self.snapshots)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, index: int) -> Dataset:
        return self.snapshots[index]

    def snapshot(self, day: str) -> Dataset:
        """The snapshot of one day (first match, O(1) via a lazy index)."""
        if self._day_index is None:
            index: Dict[str, int] = {}
            for position, candidate in enumerate(self.snapshots):
                index.setdefault(candidate.day, position)
            self._day_index = index
        position = self._day_index.get(day)
        if position is None:
            available = ", ".join(self.days) or "(series is empty)"
            raise SchemaError(
                f"no snapshot for day {day!r}; available days: {available}"
            )
        return self.snapshots[position]
