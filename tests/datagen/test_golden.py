"""Golden digests of the generated collections.

Every reproduced table depends on the claim generator's RNG stream and on
the order claims are inserted (the columnar tie-breaks follow it), so this
pins both: a sha256 per snapshot over its claims in insertion order, and
one per gold standard.  Covered: every snapshot of the tiny-scale Stock and
Flight collections, and the small-scale report day of each.

Regenerate the fixture (only for a deliberate, documented re-baseline)::

    PYTHONPATH=src python -m tests.datagen.test_golden > tests/datagen/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict
from unittest import mock

import pytest

from repro.core.dataset import Dataset, DatasetSeries
from repro.core.gold import GoldStandard
from repro.datagen import flight, generator, stock
from repro.datagen.generator import DomainCollection

FIXTURE = Path(__file__).with_name("golden_digests.json")

_MODULES = {"stock": stock, "flight": flight}
_CONFIGS = {
    "stock": stock.StockConfig,
    "flight": flight.FlightConfig,
}


def snapshot_digest(dataset: Dataset) -> str:
    """sha256 over the claims item-major, then source-major, in insertion
    order: source, item, ``repr(value)``, granularity, reason."""
    digest = hashlib.sha256()

    def line(source_id, item, claim) -> None:
        reason = claim.reason.name if claim.reason is not None else None
        digest.update(
            f"{source_id}\t{item.object_id}\t{item.attribute}\t"
            f"{claim.value!r}\t{claim.granularity!r}\t{reason}\n".encode()
        )

    for item, source_id, claim in dataset.iter_claims():
        line(source_id, item, claim)
    digest.update(b"--\n")
    for source_id in dataset.sources:
        for item, claim in dataset.claims_by(source_id).items():
            line(source_id, item, claim)
    return digest.hexdigest()


def gold_digest(gold: GoldStandard) -> str:
    """sha256 over the gold values in insertion order."""
    digest = hashlib.sha256()
    for item, value in gold.values.items():
        digest.update(f"{item.object_id}\t{item.attribute}\t{value!r}\n".encode())
    return digest.hexdigest()


def collection_digests(collection: DomainCollection, days=None) -> Dict:
    wanted = collection.series.days if days is None else days
    return {
        "snapshots": {
            day: snapshot_digest(collection.series.snapshot(day)) for day in wanted
        },
        "gold": {day: gold_digest(collection.gold_for(day)) for day in wanted},
    }


def report_day_collection(domain: str, scale: str) -> DomainCollection:
    """The collection at ``scale`` generated for its report day only.

    Day indices and every RNG stream are those of the full collection:
    only the series generation is narrowed to the one report-day snapshot.
    """
    module = _MODULES[domain]
    config = getattr(_CONFIGS[domain], scale)()
    labels = list(config.day_labels())
    day = labels.index(config.report_day())

    def report_series(domain_, world, profiles, day_labels, seed=0):
        series = DatasetSeries(domain=domain_)
        series.add(generator.generate_snapshot(
            domain_, world, profiles, day, day_labels[day], seed=seed
        ))
        return series

    with mock.patch.object(module, "generate_series", report_series):
        return getattr(module, f"generate_{domain}_collection")(config)


def compute_digests() -> Dict:
    tiny = {
        "stock": stock.generate_stock_collection(stock.StockConfig.tiny()),
        "flight": flight.generate_flight_collection(flight.FlightConfig.tiny()),
    }
    return {
        "tiny": {domain: collection_digests(c) for domain, c in tiny.items()},
        "small": {
            domain: collection_digests(report_day_collection(domain, "small"))
            for domain in _MODULES
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


class TestGoldenDigests:
    def test_tiny_stock(self, golden, stock_collection):
        assert collection_digests(stock_collection) == golden["tiny"]["stock"]

    def test_tiny_flight(self, golden, flight_collection):
        assert collection_digests(flight_collection) == golden["tiny"]["flight"]

    @pytest.mark.parametrize("domain", ["stock", "flight"])
    def test_small_report_day(self, golden, domain):
        collection = report_day_collection(domain, "small")
        expected = golden["small"][domain]
        assert list(expected["snapshots"]) == [collection.report_day]
        assert collection_digests(collection) == expected


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=2, sort_keys=True))
