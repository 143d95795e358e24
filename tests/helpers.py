"""Hand-built miniature datasets and shared checks for unit tests.

``build_dataset`` turns a compact claim table into a frozen
:class:`~repro.core.dataset.Dataset`, so tests can express fusion scenarios
("three sources say 10, one says 99") in a couple of lines.
``claim_tables`` draws such tables at random for property tests, and
``assert_problems_bitwise_equal`` pins two compiled problems as
interchangeable.  ``writer_threads`` lists the live background store
writers.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.core.attributes import AttributeSpec, AttributeTable, ValueKind
from repro.core.dataset import Dataset
from repro.core.gold import GoldStandard
from repro.core.records import Claim, DataItem, SourceMeta, Value

DEFAULT_SPECS = (
    AttributeSpec("price", ValueKind.NUMERIC),
    AttributeSpec("volume", ValueKind.NUMERIC, statistical=True),
    AttributeSpec("depart", ValueKind.TIME),
    AttributeSpec("gate", ValueKind.STRING),
)


def build_dataset(
    claims: Dict[Tuple[str, str, str], Value],
    specs: Iterable[AttributeSpec] = DEFAULT_SPECS,
    domain: str = "test",
    day: str = "d0",
    granularities: Optional[Dict[Tuple[str, str, str], float]] = None,
) -> Dataset:
    """Build a frozen dataset from {(source, object, attribute): value}."""
    table = AttributeTable.from_specs(list(specs))
    dataset = Dataset(domain=domain, day=day, attributes=table)
    sources = {source for source, _obj, _attr in claims}
    for source_id in sorted(sources):
        dataset.add_source(SourceMeta(source_id))
    for (source_id, object_id, attribute), value in claims.items():
        granularity = (granularities or {}).get((source_id, object_id, attribute))
        dataset.add_claim(
            source_id,
            DataItem(object_id, attribute),
            Claim(value=value, granularity=granularity),
        )
    return dataset.freeze()


def build_gold(values: Dict[Tuple[str, str], Value], domain: str = "test") -> GoldStandard:
    """Build a gold standard from {(object, attribute): value}."""
    return GoldStandard(
        domain=domain,
        values={DataItem(obj, attr): value for (obj, attr), value in values.items()},
    )


SOURCES = ("s1", "s2", "s3", "s4")
OBJECTS = ("o1", "o2", "o3", "o4", "o5")
ATTRS = ("price", "volume", "gate")
NUMERIC_VALUES = (1.0, 2.0, 5.0, 9.5, 10.0, 10.25, 11.0, 77.0, 100.0)
STRING_VALUES = ("A1", "A2", "B7", "C3")

#: The arrays whose bitwise equality pins two problems as interchangeable.
PROBLEM_ARRAYS = (
    "item_start", "cluster_item", "cluster_support", "claim_source",
    "claim_cluster", "_cluster_value_code", "_claim_value_code",
    "_item_index", "_attr_tol", "_claim_granularity",
)


def value_for(attribute: str, pick: int) -> Value:
    """Map a hypothesis integer onto a type-correct value for an attribute."""
    if attribute == "gate":
        return STRING_VALUES[pick % len(STRING_VALUES)]
    return NUMERIC_VALUES[pick % len(NUMERIC_VALUES)]


def claim_tables(min_size: int = 2, max_size: int = 30):
    """Random ``{(source, object, attribute): value}`` claim tables."""
    cell = st.tuples(
        st.sampled_from(SOURCES),
        st.sampled_from(OBJECTS),
        st.sampled_from(ATTRS),
    )
    return st.dictionaries(
        cell, st.integers(0, 100), min_size=min_size, max_size=max_size
    ).map(
        lambda picks: {
            cell: value_for(cell[2], pick) for cell, pick in picks.items()
        }
    )


def assert_problems_bitwise_equal(a, b) -> None:
    """Every array in :data:`PROBLEM_ARRAYS`, the items and sources match."""
    for name in PROBLEM_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.items == b.items
    assert a.sources == b.sources


#: Value codes depend on interning order; compare them decoded.
VALUE_CODES = ("_cluster_value_code", "_claim_value_code")


def assert_same_structure(ours, base) -> None:
    """Bitwise :data:`PROBLEM_ARRAYS`, with value codes compared decoded."""
    for name in PROBLEM_ARRAYS:
        if name in VALUE_CODES:
            continue
        assert np.array_equal(getattr(ours, name), getattr(base, name)), name
    for name in VALUE_CODES:
        decoded = [ours._view.values[c] for c in getattr(ours, name).tolist()]
        expected = [base._view.values[c] for c in getattr(base, name).tolist()]
        assert decoded == expected, name
    assert ours.items == base.items
    assert ours.sources == base.sources


def writer_threads():
    """The live ``store-writer`` threads (none once ``serve`` returns)."""
    return [t for t in threading.enumerate() if t.name == "store-writer"]
