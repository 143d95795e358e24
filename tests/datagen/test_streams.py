"""Low-churn claim streams: day labels that order like the days they name."""

import pytest

from repro.datagen import perturbed_claim_stream
from repro.fusion.registry import make_method
from repro.serving import TruthStore

from tests.helpers import build_dataset


def _tiny_base(day):
    return build_dataset({
        (source, f"o{o}", "price"): 10.0 + o + 0.1 * j
        for j, source in enumerate(("s1", "s2", "s3"))
        for o in range(8)
    }, day=day)


@pytest.mark.parametrize("base_day", ["2011-07-05", "d0"])
def test_twelve_days_publish_in_order_into_a_monotonic_store(base_day):
    base = _tiny_base(base_day)
    stream = perturbed_claim_stream(base, n_days=12, churn=0.1, seed=3)
    store = TruthStore(monotonic_days=True)
    for snapshot in [base, *stream.snapshots]:
        store.publish(snapshot.day, {"Vote": make_method("Vote").run(snapshot)})
    assert store.version == 13
    assert store.day == stream.snapshots[-1].day
    assert stream.days == [snapshot.day for snapshot in stream.snapshots]
    assert stream.days == sorted(stream.days)
    assert len(set(stream.days)) == 12


def test_iso_base_continues_with_consecutive_dates():
    stream = perturbed_claim_stream(_tiny_base("2011-12-30"), n_days=3, seed=1)
    assert stream.days == ["2011-12-31", "2012-01-01", "2012-01-02"]
