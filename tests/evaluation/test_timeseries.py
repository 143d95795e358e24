"""Per-day precision series (Table 9)."""

import pytest

from repro.evaluation.metrics import evaluate
from repro.evaluation.timeseries import PrecisionSeries, precision_over_time
from repro.fusion.base import FusionProblem
from repro.fusion.registry import make_method


class TestPrecisionSeries:
    def test_summary_statistics(self):
        series = PrecisionSeries(
            method="m", days=["d0", "d1"], precisions=[0.8, 1.0]
        )
        assert series.average == pytest.approx(0.9)
        assert series.minimum == pytest.approx(0.8)
        assert series.deviation == pytest.approx(0.1)

    def test_empty_series(self):
        series = PrecisionSeries(method="m", days=[], precisions=[])
        assert series.average == 0.0
        assert series.deviation == 0.0

    def test_empty_series_minimum(self):
        assert PrecisionSeries(method="m", days=[], precisions=[]).minimum == 0.0

    def test_single_day_deviation_is_zero(self):
        series = PrecisionSeries(method="m", days=["d0"], precisions=[0.7])
        assert series.average == pytest.approx(0.7)
        assert series.minimum == pytest.approx(0.7)
        assert series.deviation == 0.0


class TestPrecisionOverTime:
    def test_runs_on_generated_series(self, flight_collection):
        result = precision_over_time(
            flight_collection.series,
            flight_collection.gold_by_day,
            ["Vote", "AccuPr"],
        )
        assert set(result) == {"Vote", "AccuPr"}
        for series in result.values():
            assert len(series.precisions) == len(flight_collection.series)
            assert all(0.0 <= p <= 1.0 for p in series.precisions)

    def test_day_filter(self, flight_collection):
        wanted = flight_collection.series.days[:1]
        result = precision_over_time(
            flight_collection.series,
            flight_collection.gold_by_day,
            ["Vote"],
            days=wanted,
        )
        assert result["Vote"].days == wanted

    def test_day_filter_unknown_day_yields_empty(self, flight_collection):
        result = precision_over_time(
            flight_collection.series,
            flight_collection.gold_by_day,
            ["Vote"],
            days=["not-a-day"],
        )
        assert result["Vote"].days == []
        assert result["Vote"].precisions == []

    def test_session_engine_equals_cold_engine(self, flight_collection):
        """Table 9 reproduces each method's from-scratch numbers exactly."""
        names = ["Vote", "AccuPr", "AccuSimAttr", "AccuCopy"]
        table9 = precision_over_time(
            flight_collection.series, flight_collection.gold_by_day, names,
        )
        for name in names:
            cold = []
            for snapshot in flight_collection.series:
                result = make_method(name).run(FusionProblem(snapshot))
                gold = flight_collection.gold_by_day[snapshot.day]
                cold.append(evaluate(snapshot, gold, result).precision)
            assert table9[name].days == flight_collection.series.days
            assert table9[name].precisions == cold, name
