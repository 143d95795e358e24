"""Shared experiment context: generated collections at a chosen scale.

The paper's experiments all run over the same two data collections; this
module generates them once per scale and caches the derived fusion problems
so the per-table experiment modules stay cheap.

Scales
------
``tiny``
    A few dozen objects, 3 days — used by the unit tests.
``small``
    ~100 objects, ~8 days — quick local runs of every experiment.
``default``
    Paper-shaped: full source populations, 200 stocks / 300 flights over the
    full observation period.  This is the scale EXPERIMENTS.md reports.
``paper``
    The paper's full object counts (1000 stocks / 1200 flights).  Slow;
    numbers match ``default`` closely because every statistic is a ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.datagen.flight import FlightConfig, generate_flight_collection
from repro.datagen.generator import DomainCollection
from repro.datagen.stock import StockConfig, generate_stock_collection
from repro.errors import ConfigError
from repro.fusion.base import FusionProblem

SCALES = ("tiny", "small", "default", "paper")


def _stock_config(scale: str) -> StockConfig:
    if scale == "tiny":
        return StockConfig.tiny()
    if scale == "small":
        return StockConfig.small()
    if scale == "default":
        return StockConfig()
    if scale == "paper":
        return StockConfig.paper_scale()
    raise ConfigError(f"unknown scale {scale!r}; expected one of {SCALES}")


def _flight_config(scale: str) -> FlightConfig:
    if scale == "tiny":
        return FlightConfig.tiny()
    if scale == "small":
        return FlightConfig.small()
    if scale == "default":
        return FlightConfig()
    if scale == "paper":
        return FlightConfig.paper_scale()
    raise ConfigError(f"unknown scale {scale!r}; expected one of {SCALES}")


@dataclass
class ExperimentContext:
    """Lazily-generated collections plus cached fusion problems.

    ``workers`` is the parallelism every experiment in this context may
    use; :meth:`scheduler` is the shared
    :class:`~repro.parallel.SolveScheduler` behind it — one worker pool,
    and one shared-memory export per compiled problem, reused by every
    experiment that runs in the context (``None`` while ``workers <= 1``).
    It is the only place that builds a multi-worker scheduler: consumers
    take it as an argument and :meth:`close` is the one place it stops.
    """

    scale: str = "small"
    workers: int = 1
    _stock: Optional[DomainCollection] = field(default=None, repr=False)
    _flight: Optional[DomainCollection] = field(default=None, repr=False)
    _problems: Dict[str, FusionProblem] = field(default_factory=dict, repr=False)
    _scheduler: Optional[object] = field(default=None, repr=False)

    @property
    def stock(self) -> DomainCollection:
        if self._stock is None:
            self._stock = generate_stock_collection(_stock_config(self.scale))
        return self._stock

    @property
    def flight(self) -> DomainCollection:
        if self._flight is None:
            self._flight = generate_flight_collection(_flight_config(self.scale))
        return self._flight

    def collection(self, domain: str) -> DomainCollection:
        if domain == "stock":
            return self.stock
        if domain == "flight":
            return self.flight
        raise ConfigError(f"unknown domain {domain!r}")

    def problem(self, domain: str) -> FusionProblem:
        """The report-day snapshot compiled for fusion (cached)."""
        if domain not in self._problems:
            collection = self.collection(domain)
            self._problems[domain] = FusionProblem(collection.snapshot)
        return self._problems[domain]

    @property
    def domains(self) -> tuple:
        return ("stock", "flight")

    # ------------------------------------------------------------ parallelism
    def scheduler(self):
        """The context-wide solve scheduler, or ``None`` when serial.

        On platforms without usable shared memory the scheduler object is
        still returned — it executes the same jobs inline — so callers can
        thread ``scheduler=ctx.scheduler()`` unconditionally.
        """
        if self.workers <= 1:
            return None
        if self._scheduler is None:
            from repro.parallel import SolveScheduler

            self._scheduler = SolveScheduler(workers=self.workers)
        return self._scheduler

    def prepare(self) -> None:
        """Generate both collections and compile their report problems now.

        ``runner all`` calls this once up front so every experiment that
        follows reuses the same datasets and compiled problems instead of
        paying the generation/compile on its first lazy access.
        """
        for domain in self.domains:
            self.collection(domain)
            self.problem(domain)

    def close(self) -> None:
        """Shut down the shared scheduler (idempotent)."""
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None


_CACHE: Dict[str, ExperimentContext] = {}


def get_context(scale: str = "small") -> ExperimentContext:
    """A process-wide shared context per scale (collections are immutable)."""
    if scale not in _CACHE:
        _CACHE[scale] = ExperimentContext(scale=scale)
    return _CACHE[scale]
