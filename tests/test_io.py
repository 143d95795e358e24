"""CSV/JSON round trips for datasets, gold standards, fusion results."""

import re

import pytest

from repro.core.records import DataItem
from repro.errors import ValueParseError
from repro.fusion.base import FusionProblem, FusionResult
from repro.fusion.registry import make_method
from repro.io import (
    read_claims_csv,
    read_gold_csv,
    read_result_json,
    write_claims_csv,
    write_gold_csv,
    write_result_json,
)

from tests.helpers import build_dataset, build_gold


@pytest.fixture()
def dataset():
    return build_dataset(
        {
            ("s1", "o1", "price"): 10.5,
            ("s2", "o1", "price"): 10.5,
            ("s1", "o1", "gate"): "C1",
            ("s2", "o2", "depart"): 615.0,
        },
        granularities={("s1", "o1", "price"): 0.1},
    )


class TestClaimsRoundTrip:
    def test_counts_preserved(self, tmp_path, dataset):
        path = tmp_path / "claims.csv"
        write_claims_csv(dataset, path)
        loaded = read_claims_csv(path)
        assert loaded.num_claims == dataset.num_claims
        assert loaded.num_sources == dataset.num_sources
        assert set(loaded.items) == set(dataset.items)

    def test_values_and_types_preserved(self, tmp_path, dataset):
        path = tmp_path / "claims.csv"
        write_claims_csv(dataset, path)
        loaded = read_claims_csv(path)
        item = DataItem("o1", "price")
        assert loaded.claims_on(item)["s1"].value == pytest.approx(10.5)
        assert isinstance(loaded.claims_on(DataItem("o1", "gate"))["s1"].value, str)

    def test_granularity_preserved(self, tmp_path, dataset):
        path = tmp_path / "claims.csv"
        write_claims_csv(dataset, path)
        loaded = read_claims_csv(path)
        assert loaded.claims_on(DataItem("o1", "price"))["s1"].granularity == 0.1
        assert loaded.claims_on(DataItem("o1", "price"))["s2"].granularity is None

    def test_attribute_specs_preserved(self, tmp_path, dataset):
        path = tmp_path / "claims.csv"
        write_claims_csv(dataset, path)
        loaded = read_claims_csv(path)
        assert loaded.spec("depart").kind.value == "time"
        assert loaded.spec("volume").statistical

    def test_loaded_dataset_is_fusable(self, tmp_path, dataset):
        path = tmp_path / "claims.csv"
        write_claims_csv(dataset, path)
        loaded = read_claims_csv(path)
        result = make_method("Vote").run(FusionProblem(loaded))
        assert result.selected[DataItem("o1", "price")] == pytest.approx(10.5)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueParseError):
            read_claims_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s9,o9,price", "line 13: claim row has 3 fields, expected 5"),
            ("s9,o9,price,f:1.0,abc", "line 13: bad granularity 'abc'"),
            ("s9,o9,price,f:1.0,nan", "line 13: bad granularity 'nan'"),
            ("s9,o9,price,f:1.0,inf", "line 13: bad granularity 'inf'"),
            ("s9,o9,price,f:1.0,-1.0", "line 13: bad granularity '-1.0'"),
            ("s9,o9,price,f:1.0,0", "line 13: bad granularity '0'"),
            ("s9,o9,price,1.0,", "line 13: untagged value payload '1.0'"),
            ("s1,o1,price,f:3.0,", "line 13: second claim by 's1' on ('o1', 'price')"),
            ("", None),  # blank rows are skipped
        ],
    )
    def test_malformed_claim_row_names_file_and_line(
        self, tmp_path, dataset, row, message
    ):
        path = tmp_path / "claims.csv"
        write_claims_csv(dataset, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 12  # header, 4 #attribute, 2 #source, 1 + 4 claims
        path.write_text("\n".join(lines + [row]) + "\n")
        if message is None:
            assert read_claims_csv(path).num_claims == dataset.num_claims
            return
        with pytest.raises(ValueParseError, match=re.escape("claims.csv, " + message)):
            read_claims_csv(path)

    def test_string_value_that_looks_numeric(self, tmp_path):
        ds = build_dataset({("s1", "o1", "gate"): "12"})
        path = tmp_path / "claims.csv"
        write_claims_csv(ds, path)
        loaded = read_claims_csv(path)
        assert loaded.claims_on(DataItem("o1", "gate"))["s1"].value == "12"


class TestGoldRoundTrip:
    def test_round_trip(self, tmp_path):
        gold = build_gold({("o1", "price"): 10.0, ("o2", "gate"): "C1"})
        path = tmp_path / "gold.csv"
        write_gold_csv(gold, path)
        loaded = read_gold_csv(path)
        assert loaded.values == gold.values
        assert loaded.domain == gold.domain

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueParseError):
            read_gold_csv(path)


class TestResultRoundTrip:
    def test_round_trip(self, tmp_path):
        result = FusionResult(
            method="AccuSim",
            selected={DataItem("o1", "price"): 10.0, DataItem("o1", "gate"): "C1"},
            trust={"s1": 0.9, "s2": 0.4},
            attr_trust={("s1", "price"): 0.95},
            rounds=7,
            converged=True,
            runtime_seconds=0.5,
        )
        path = tmp_path / "result.json"
        write_result_json(result, path)
        loaded = read_result_json(path)
        assert loaded.method == "AccuSim"
        assert loaded.selected == result.selected
        assert loaded.trust == result.trust
        assert loaded.attr_trust == result.attr_trust
        assert loaded.rounds == 7 and loaded.converged

    def test_no_attr_trust(self, tmp_path):
        result = FusionResult(
            method="Vote", selected={DataItem("o1", "price"): 1.0}, trust={}
        )
        path = tmp_path / "result.json"
        write_result_json(result, path)
        assert read_result_json(path).attr_trust is None


class TestGeneratedRoundTrip:
    def test_flight_snapshot_round_trip(self, tmp_path, flight_snapshot):
        path = tmp_path / "flight.csv"
        write_claims_csv(flight_snapshot, path)
        loaded = read_claims_csv(path)
        assert loaded.num_claims == flight_snapshot.num_claims
        # Tolerances (derived from values) must match after the round trip.
        for attr in loaded.attributes.names:
            assert loaded.tolerance(attr) == pytest.approx(
                flight_snapshot.tolerance(attr)
            )
