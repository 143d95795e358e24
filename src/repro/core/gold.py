"""Gold-standard construction and matching (Section 2.2).

The paper cannot observe the real world directly, so it builds gold standards
from trusted sources:

* **Stock** — majority vote over five popular financial sites (NASDAQ,
  Yahoo! Finance, Google Finance, MSN Money, Bloomberg) on 200 designated
  symbols, voting only on items provided by at least three of them.
* **Flight** — the data of the three airline websites on 100 randomly
  selected flights (majority vote when they disagree).

:func:`build_gold_standard` implements both via the same primitive: vote among
the authority sources (the :class:`~repro.core.records.SourceMeta` entries
flagged ``is_authority``) on the designated gold objects, requiring a minimum
number of authority providers per item.

Scoring against a gold standard is columnar: :func:`claim_scores` marks
every claim of a snapshot in-gold/correct with one array compare (cached per
frozen snapshot and gold standard), :func:`score_selection` scores a fusion
selection over the gold items, and :class:`GoldScorer` scores raw
restriction-sweep selections.  All three compare exactly as
:meth:`GoldStandard.is_correct` does, and fall back to it for string
attributes and values that are not both numeric.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.core.attributes import TIME_TOLERANCE_MINUTES, ValueKind
from repro.core.columnar import ColumnarView, _as_float
from repro.core.dataset import Dataset
from repro.core.records import Claim, DataItem, Value
from repro.core.tolerance import cluster_claims
from repro.errors import FusionError, GoldStandardError, SchemaError


class _GoldColumns:
    """A copy of a gold standard's values in array form.

    ``claims`` caches :class:`ClaimScores` per frozen snapshot; the whole
    object is replaced as soon as the gold values change.
    """

    def __init__(self, values: Dict[DataItem, Value]):
        self.values = dict(values)
        self.items: List[DataItem] = list(self.values)
        self.index = {item: i for i, item in enumerate(self.items)}
        self.truth_float = np.asarray(
            [_as_float(v) for v in self.values.values()], dtype=np.float64
        )
        codes: Dict[str, int] = {}
        self.item_attr = np.asarray(
            [codes.setdefault(item.attribute, len(codes)) for item in self.items],
            dtype=np.int64,
        )
        self.attributes = list(codes)
        self.claims: Dict[int, Tuple[weakref.ref, "ClaimScores"]] = {}

    def slots(self, items: Sequence[DataItem]) -> np.ndarray:
        """Gold position of each item, -1 for items outside the gold standard."""
        index = self.index
        return np.fromiter(
            (index.get(item, -1) for item in items), dtype=np.int64, count=len(items)
        )


@dataclass
class GoldStandard:
    """Truth values for a subset of data items, plus matching helpers."""

    domain: str
    values: Dict[DataItem, Value] = field(default_factory=dict)
    _columns: Optional[_GoldColumns] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, item: DataItem) -> bool:
        return item in self.values

    def __getitem__(self, item: DataItem) -> Value:
        return self.values[item]

    @property
    def items(self) -> Iterable[DataItem]:
        return self.values.keys()

    @property
    def objects(self) -> Set[str]:
        return {item.object_id for item in self.values}

    def is_correct(self, dataset: Dataset, item: DataItem, value: Value) -> bool:
        """Whether ``value`` matches the gold value under the item tolerance."""
        truth = self.values.get(item)
        if truth is None:
            raise GoldStandardError(f"item {item} not in gold standard")
        return dataset.values_match(item.attribute, value, truth)

    def __getstate__(self) -> dict:
        # The array form is derived (and holds weak references): rebuilt
        # on first use after unpickling.
        return {"domain": self.domain, "values": self.values}

    def columns(self) -> _GoldColumns:
        """The values in array form, rebuilt whenever they changed since."""
        cached = self._columns
        if cached is None or cached.values != self.values:
            cached = self._columns = _GoldColumns(self.values)
        return cached


def build_gold_standard(
    dataset: Dataset,
    gold_objects: Iterable[str],
    min_providers: int = 3,
    authority_ids: Optional[Iterable[str]] = None,
) -> GoldStandard:
    """Vote among authority sources to produce a gold standard.

    Parameters
    ----------
    dataset:
        The snapshot to vote over.
    gold_objects:
        Object ids eligible for the gold standard (e.g. the 200 evaluation
        symbols for Stock).
    min_providers:
        Minimum number of authority sources that must provide an item for it
        to enter the gold standard (3 in the paper's Stock construction;
        use 1 to accept any airline-covered flight item).
    authority_ids:
        Explicit authority source ids; defaults to sources flagged
        ``is_authority`` in the dataset.
    """
    if authority_ids is None:
        authorities = [s for s, m in dataset.sources.items() if m.is_authority]
    else:
        authorities = list(authority_ids)
    if not authorities:
        raise GoldStandardError("no authority sources available for voting")
    authority_set = set(authorities)
    object_set = set(gold_objects)

    gold = GoldStandard(domain=dataset.domain)
    for item in dataset.items:
        if item.object_id not in object_set:
            continue
        claims = dataset.claims_on(item)
        authority_claims: Dict[str, Claim] = {
            s: c for s, c in claims.items() if s in authority_set
        }
        if len(authority_claims) < min_providers:
            continue
        spec = dataset.spec(item.attribute)
        clustering = cluster_claims(
            authority_claims, spec, dataset.tolerance(item.attribute)
        )
        gold.values[item] = clustering.dominant.representative
    if not gold.values:
        raise GoldStandardError(
            "gold standard is empty; check gold_objects and authority coverage"
        )
    return gold


def _match(
    gold: GoldStandard,
    columns: _GoldColumns,
    matcher,
    slots: np.ndarray,
    provided: np.ndarray,
    value_of: Callable[[int], Value],
) -> np.ndarray:
    """``gold.is_correct`` over many rows in one array compare.

    Row ``r`` pairs the gold item at ``slots[r]`` with a provided value
    whose float form is ``provided[r]`` (NaN when not convertible);
    ``value_of(r)`` is the value itself.  ``matcher`` (a snapshot or a
    compiled, possibly restricted problem) supplies the attribute specs and
    tolerances.  Rows not both numeric, and string attributes, go through
    ``gold.is_correct`` itself.
    """
    attr = columns.item_attr[slots]
    tolerance = np.zeros(len(columns.attributes), dtype=np.float64)
    string = np.zeros(len(columns.attributes), dtype=bool)
    for code in np.unique(attr).tolist():
        name = columns.attributes[code]
        kind = matcher.spec(name).kind
        string[code] = kind is ValueKind.STRING
        tolerance[code] = (
            TIME_TOLERANCE_MINUTES if kind is ValueKind.TIME
            else matcher.tolerance(name)
        )
    truth = columns.truth_float[slots]
    vectorized = ~(np.isnan(provided) | np.isnan(truth) | string[attr])
    correct = np.zeros(len(slots), dtype=bool)
    correct[vectorized] = (
        np.abs(provided[vectorized] - truth[vectorized])
        <= tolerance[attr[vectorized]]
    )
    for row in np.flatnonzero(~vectorized).tolist():
        correct[row] = gold.is_correct(
            matcher, columns.items[slots[row]], value_of(row)
        )
    return correct


@dataclass(frozen=True)
class ClaimScores:
    """Every claim of one snapshot scored against one gold standard.

    Arrays are aligned with the snapshot's columnar view; the per-source
    counts with ``view.sources``.
    """

    view: ColumnarView
    gold_slot: np.ndarray  # (n_claims,) gold position of the item, -1 outside
    correct: np.ndarray    # (n_claims,) the claim matches the gold value
    n_gold: List[int]      # per source: claims on gold items
    n_correct: List[int]   # per source: correct claims on gold items
    source_index: Dict[str, int]

    def source(self, source_id: str) -> int:
        code = self.source_index.get(source_id)
        if code is None:
            raise SchemaError(f"unknown source {source_id!r}")
        return code


def claim_scores(dataset: Dataset, gold: GoldStandard) -> ClaimScores:
    """Score every claim of ``dataset`` against ``gold`` in one pass.

    Cached per frozen snapshot on the gold standard's array form, which is
    rebuilt (dropping the cache) whenever the gold values change.
    """
    columns = gold.columns()
    hit = columns.claims.get(id(dataset))
    if hit is not None and hit[0]() is dataset:
        return hit[1]
    view = dataset.columnar
    gold_slot = columns.slots(view.items)[view.claim_item]
    rows = np.flatnonzero(gold_slot >= 0)
    value_codes = view.claim_value[rows]
    correct = np.zeros(view.n_claims, dtype=bool)
    correct[rows] = _match(
        gold, columns, dataset, gold_slot[rows], view.claim_numeric[rows],
        lambda r: view.values[value_codes[r]],
    )
    sources = view.claim_source
    scores = ClaimScores(
        view=view,
        gold_slot=gold_slot,
        correct=correct,
        n_gold=np.bincount(sources[rows], minlength=view.n_sources).tolist(),
        n_correct=np.bincount(sources[correct], minlength=view.n_sources).tolist(),
        source_index={s: i for i, s in enumerate(view.sources)},
    )
    if dataset.frozen:
        key, cache = id(dataset), columns.claims
        # The entry goes with the snapshot, before its id can be reused.
        cache[key] = (
            weakref.ref(dataset, lambda _ref: cache.pop(key, None)), scores
        )
    return scores


def score_selection(
    matcher, gold: GoldStandard, selected: Mapping[DataItem, Value]
) -> Tuple[List[DataItem], np.ndarray, np.ndarray]:
    """Score a selection over the gold items in one array compare.

    Returns ``(items, output, correct)``: the gold items in order, whether
    ``selected`` has a value for each, and whether that value matches the
    gold value under ``matcher``'s tolerances (a snapshot, or the compiled
    and possibly source-restricted problem the selection came from).
    """
    columns = gold.columns()
    values = [selected.get(item) for item in columns.items]
    output = np.fromiter(
        (v is not None for v in values), dtype=bool, count=len(values)
    )
    rows = np.flatnonzero(output)
    provided = np.asarray(
        [_as_float(values[r]) for r in rows.tolist()], dtype=np.float64
    )
    correct = np.zeros(len(values), dtype=bool)
    correct[rows] = _match(
        gold, columns, matcher, rows, provided, lambda r: values[rows[r]]
    )
    return columns.items, output, correct


class GoldScorer:
    """Vectorized precision/recall of raw restriction-sweep selections.

    A raw selection is an array of per-item cluster indices on a compiled
    (restricted) problem; this scores it without packaging per-item dicts,
    with counts identical to ``evaluate(sub, gold, result)``.
    """

    def __init__(self, base, gold: GoldStandard):
        if base._view is None:
            raise FusionError("GoldScorer requires a columnar-compiled problem")
        self.view: ColumnarView = base._view
        self.gold = gold
        self._slots: Optional[Tuple[_GoldColumns, np.ndarray]] = None

    def score(self, sub, selected_local: np.ndarray) -> Tuple[float, float]:
        """``(precision, recall)`` of a raw selection on a restriction."""
        columns = self.gold.columns()
        if self._slots is None or self._slots[0] is not columns:
            self._slots = (columns, columns.slots(self.view.items))
        gold_slot = self._slots[1][sub._item_index]
        rows = np.flatnonzero(gold_slot >= 0)
        if not len(rows):
            return 0.0, 0.0
        value_codes = sub._cluster_value_code[selected_local[rows]]
        values = self.view.values
        correct = _match(
            self.gold, columns, sub, gold_slot[rows],
            self.view.value_numeric[value_codes],
            lambda r: values[value_codes[r]],
        )
        n_correct = int(correct.sum())
        num_gold = len(columns.items)
        return (
            n_correct / len(rows),
            n_correct / num_gold if num_gold else 0.0,
        )


def accuracy_of_source(
    dataset: Dataset, gold: GoldStandard, source_id: str
) -> Optional[float]:
    """Source accuracy against the gold standard (Section 3.3).

    The percentage of the source's provided true values among all its data
    items appearing in the gold standard; ``None`` when the source provides
    no gold item.
    """
    scores = claim_scores(dataset, gold)
    code = scores.source(source_id)
    total = scores.n_gold[code]
    return scores.n_correct[code] / total if total else None


def coverage_of_source(dataset: Dataset, gold: GoldStandard, source_id: str) -> float:
    """Item-level coverage of the gold standard by one source (Table 4)."""
    if len(gold) == 0:
        return 0.0
    scores = claim_scores(dataset, gold)
    return scores.n_gold[scores.source(source_id)] / len(gold)


def recall_of_source(dataset: Dataset, gold: GoldStandard, source_id: str) -> float:
    """Coverage x accuracy: the fraction of gold items the source gets right.

    This is the ordering key of Figure 9 ("ordered the sources by the product
    of coverage and accuracy (i.e., recall)").
    """
    scores = claim_scores(dataset, gold)
    code = scores.source(source_id)
    if len(gold) == 0:
        return 0.0
    return scores.n_correct[code] / len(gold)
