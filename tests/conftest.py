"""Shared fixtures: tiny generated collections and hand-built datasets."""

from __future__ import annotations

import faulthandler

import pytest

from repro.datagen import (
    FlightConfig,
    StockConfig,
    generate_flight_collection,
    generate_stock_collection,
)
from repro.fusion.base import FusionProblem


@pytest.fixture(scope="session")
def stock_collection():
    """A tiny but fully-featured Stock collection (55 sources, 3 days)."""
    return generate_stock_collection(StockConfig.tiny())


@pytest.fixture(scope="session")
def flight_collection():
    """A tiny but fully-featured Flight collection (38 sources, 3 days)."""
    return generate_flight_collection(FlightConfig.tiny())


@pytest.fixture(scope="session")
def stock_snapshot(stock_collection):
    return stock_collection.snapshot


@pytest.fixture(scope="session")
def flight_snapshot(flight_collection):
    return flight_collection.snapshot


@pytest.fixture(scope="session")
def stock_gold(stock_collection):
    return stock_collection.gold


@pytest.fixture(scope="session")
def flight_gold(flight_collection):
    return flight_collection.gold


@pytest.fixture(scope="session")
def stock_problem(stock_snapshot):
    return FusionProblem(stock_snapshot)


@pytest.fixture(scope="session")
def flight_problem(flight_snapshot):
    return FusionProblem(flight_snapshot)


@pytest.fixture()
def hang_guard():
    """Abort the run with every thread's traceback if a test hangs.

    The store writer's tests wait on a background thread; a lost wake-up
    would otherwise block forever instead of failing.
    """
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
