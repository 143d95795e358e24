"""Core data model: attributes, claims, datasets, tolerance, gold standards."""

from repro.core.attributes import (
    DEFAULT_TOLERANCE_FACTOR,
    TIME_TOLERANCE_MINUTES,
    AttributeSpec,
    AttributeTable,
    ValueKind,
)
from repro.core.dataset import Dataset, DatasetSeries
from repro.core.delta import (
    ClaimDelta,
    DayCompilation,
    DayStats,
    SeriesCompiler,
    splice_compiled,
)
from repro.core.gold import (
    GoldStandard,
    accuracy_of_source,
    build_gold_standard,
    coverage_of_source,
    recall_of_source,
)
from repro.core.records import (
    Claim,
    DataItem,
    ErrorReason,
    SourceCategory,
    SourceMeta,
    Value,
)
from repro.core.tolerance import (
    ItemClustering,
    ValueCluster,
    attribute_tolerance,
    cluster_claims,
    values_match,
)

__all__ = [
    "DEFAULT_TOLERANCE_FACTOR",
    "TIME_TOLERANCE_MINUTES",
    "AttributeSpec",
    "AttributeTable",
    "ValueKind",
    "Dataset",
    "DatasetSeries",
    "ClaimDelta",
    "DayCompilation",
    "DayStats",
    "SeriesCompiler",
    "splice_compiled",
    "GoldStandard",
    "accuracy_of_source",
    "build_gold_standard",
    "coverage_of_source",
    "recall_of_source",
    "Claim",
    "DataItem",
    "ErrorReason",
    "SourceCategory",
    "SourceMeta",
    "Value",
    "ItemClustering",
    "ValueCluster",
    "attribute_tolerance",
    "cluster_claims",
    "values_match",
]
