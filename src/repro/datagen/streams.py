"""Synthetic low-churn claim streams for streaming benchmarks and tests.

The generated daily collections re-draw every per-claim error realization
each day, which models the paper's *measurement* setup (independent daily
observations) but not its *data* characteristics: consecutive Deep-Web
snapshots share the overwhelming majority of their claims.  This module
derives such a stream from one base snapshot: each day a small fraction of
(source, item) cells is touched — most get a slightly perturbed value, some
are retracted — producing both the explicit :class:`ClaimDelta` feed a
streaming deployment would consume and the equivalent full ``Dataset``
snapshots a from-scratch pipeline would recompile.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.dataset import Dataset
from repro.core.delta import ClaimDelta
from repro.core.records import Claim, DataItem


@dataclass
class ClaimStream:
    """A base snapshot plus aligned per-day deltas and full snapshots."""

    base: Dataset
    deltas: List[ClaimDelta]
    snapshots: List[Dataset]

    @property
    def days(self) -> List[str]:
        return [delta.day for delta in self.deltas]


def _day_labels(base_day: str, n_days: int) -> List[str]:
    """Labels for the ``n_days`` after ``base_day`` that sort in day order.

    An ISO-dated base continues with consecutive ISO dates; any other base
    gets a zero-padded step suffix (``d0+01`` ... ``d0+12``), so string
    comparison — what ``TruthStore(monotonic_days=True)`` uses — never puts
    day 10 before day 9.
    """
    try:
        first = datetime.date.fromisoformat(base_day)
    except ValueError:
        width = len(str(n_days))
        return [f"{base_day}+{step:0{width}d}" for step in range(1, n_days + 1)]
    return [
        (first + datetime.timedelta(days=step)).isoformat()
        for step in range(1, n_days + 1)
    ]


def perturbed_claim_stream(
    base: Dataset,
    n_days: int,
    churn: float = 0.003,
    retract_share: float = 0.15,
    jitter: float = 0.005,
    seed: int = 0,
) -> ClaimStream:
    """Derive ``n_days`` of low-churn daily changes from one snapshot.

    Each day, ``churn`` of the live (source, item) cells are touched:
    ``retract_share`` of them are retracted, the rest get their numeric
    value nudged by a relative N(0, ``jitter``) step (string values are
    kept as-is, modelling re-confirmation).  Days are labelled so they
    sort in step order (see :func:`_day_labels`).  Deterministic in
    ``seed``.
    """
    rng = np.random.default_rng(seed)
    current: Dict[Tuple[str, DataItem], Claim] = {}
    for item, source_id, claim in base.iter_claims():
        current[(source_id, item)] = claim
    metas = list(base.sources.values())

    deltas: List[ClaimDelta] = []
    snapshots: List[Dataset] = []
    for day in _day_labels(base.day, n_days):
        cells = list(current.keys())
        n_touched = max(1, int(len(cells) * churn))
        touched = rng.choice(len(cells), size=n_touched, replace=False)
        added: List[Tuple[str, DataItem, Claim]] = []
        retracted: List[Tuple[str, DataItem]] = []
        for index in touched:
            source_id, item = cells[index]
            old = current[(source_id, item)]
            if rng.random() < retract_share:
                retracted.append((source_id, item))
                del current[(source_id, item)]
                continue
            value = old.value
            if not isinstance(value, str):
                value = float(value) * (1.0 + float(rng.normal(0.0, jitter)))
            claim = Claim(value=value, granularity=old.granularity)
            added.append((source_id, item, claim))
            current[(source_id, item)] = claim
        deltas.append(
            ClaimDelta(day=day, added=tuple(added), retracted=tuple(retracted))
        )
        snapshot = Dataset(
            domain=base.domain, day=day, attributes=base.attributes
        )
        for meta in metas:
            snapshot.add_source(meta)
        for (source_id, item), claim in current.items():
            snapshot.add_claim(source_id, item, claim)
        snapshots.append(snapshot.freeze())
    return ClaimStream(base=base, deltas=deltas, snapshots=snapshots)
