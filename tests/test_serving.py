"""The truth-serving layer: versioned stores, service publishes, refresh safety."""

import json
import os
import sys
import threading

import pytest

from repro.core.delta import ClaimDelta
from repro.core.records import Claim, DataItem
from repro.errors import (
    FusionError,
    StalePublishError,
    StoreWriteError,
    ValueParseError,
)
from repro.fusion.base import FusionResult
from repro.fusion.registry import make_method
from repro.serving import StoreWriter, TruthService, TruthStore

from tests.helpers import build_dataset, writer_threads

pytestmark = pytest.mark.usefixtures("hang_guard")


def _result(method, values, trust, day=None):
    return FusionResult(
        method=method,
        selected={DataItem(obj, attr): v for (obj, attr), v in values.items()},
        trust=dict(trust),
    )


@pytest.fixture()
def dataset():
    return build_dataset({
        ("s1", "o1", "price"): 10.0,
        ("s2", "o1", "price"): 10.0,
        ("s3", "o1", "price"): 12.0,
        ("s1", "o2", "price"): 5.0,
        ("s2", "o2", "price"): 6.0,
        ("s1", "o3", "gate"): "A1",
        ("s2", "o3", "gate"): "A2",
    })


class TestTruthStoreBasics:
    def test_publish_and_point_lookup(self):
        store = TruthStore()
        assert store.version == 0
        assert store.lookup("o1", "price") is None
        version = store.publish("d0", {
            "Vote": _result("Vote", {("o1", "price"): 10.0}, {"s1": 0.9}),
        })
        assert version == 1 and store.version == 1 and store.day == "d0"
        answer = store.lookup("o1", "price")
        assert answer.value == 10.0
        assert answer.method == "Vote"
        assert answer.version == 1
        assert store.lookup("o1", "volume") is None
        assert store.lookup("o9", "price") is None

    def test_method_selection_and_trust_reads(self):
        store = TruthStore()
        store.publish("d0", {
            "Vote": _result("Vote", {("o1", "price"): 10.0}, {"s1": 0.5}),
            "AccuSim": _result("AccuSim", {("o1", "price"): 12.0}, {"s1": 0.7}),
        })
        assert store.lookup("o1", "price").value == 10.0  # default: first
        assert store.lookup("o1", "price", method="AccuSim").value == 12.0
        assert store.lookup("o1", "price", method="Nope") is None
        assert store.trust("s1") == 0.5
        assert store.trust("s1", method="AccuSim") == 0.7
        assert store.trust("ghost") is None

    def test_ensemble_majority_and_tie_break(self):
        store = TruthStore()
        store.publish("d0", {
            "Vote": _result("Vote", {("o1", "price"): 10.0}, {}),
            "AccuSim": _result("AccuSim", {("o1", "price"): 12.0}, {}),
            "AccuPr": _result("AccuPr", {("o1", "price"): 12.0}, {}),
        })
        answer = store.ensemble("o1", "price")
        assert answer.value == 12.0 and answer.method == "Ensemble"
        # 1-1 tie: earliest publish order wins.
        store.publish("d1", {
            "Vote": _result("Vote", {("o1", "price"): 10.0}, {}),
            "AccuSim": _result("AccuSim", {("o1", "price"): 12.0}, {}),
        })
        assert store.ensemble("o1", "price").value == 10.0
        assert store.ensemble("o9", "price") is None

    def test_publish_rejects_empty(self):
        with pytest.raises(FusionError):
            TruthStore().publish("d0", {})

    def test_save_load_round_trip(self, tmp_path):
        store = TruthStore()
        store.publish("d0", {
            "Vote": _result(
                "Vote", {("o1", "price"): 10.0, ("o3", "gate"): "A1"},
                {"s1": 0.9, "s2": 0.4},
            ),
        })
        path = tmp_path / "store.json"
        store.save(path)
        loaded = TruthStore.load(path)
        assert loaded.version == store.version
        assert loaded.day == "d0"
        assert loaded.methods == ("Vote",)
        assert loaded.lookup("o1", "price").value == 10.0
        assert loaded.lookup("o3", "gate").value == "A1"
        assert loaded.trust("s2") == 0.4

    @pytest.mark.parametrize(
        "payload, reason",
        [
            ([], "TypeError"),
            ({"version": 1, "methods": ["Vote"], "trust": {}, "truths": [
                {"object": "o1", "attribute": "price", "values": ["f:1.0"]},
            ]}, "AttributeError"),
            ({"version": 1, "methods": ["Vote"], "trust": {}, "truths": [
                {"object": "o1", "attribute": "price", "values": {"Vote": "zzz"}},
            ]}, "untagged value payload 'zzz'"),
        ],
        ids=["top-level-list", "values-list", "untagged-value"],
    )
    def test_load_rejects_a_malformed_payload(self, tmp_path, payload, reason):
        path = tmp_path / "store.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueParseError, match=reason):
            TruthStore.load(path)

    def test_save_load_round_trip_unicode_and_numeric_values(self, tmp_path):
        """String values (incl. non-ASCII and number-shaped strings) and
        float values must keep their exact type and content through JSON."""
        store = TruthStore()
        store.publish("día-☀", {
            "Vote": _result(
                "Vote",
                {
                    ("café", "城市"): "Zürich ☕",
                    ("o1", "price"): 10.5,
                    ("o2", "code"): "10.5",      # string that looks numeric
                    ("o3", "tiny"): 1.25e-300,   # round-trips via repr
                    ("o4", "neg"): -0.0,
                },
                {"søurce-π": 0.75},
            ),
        })
        path = tmp_path / "störe.json"
        store.save(path)
        loaded = TruthStore.load(path)
        assert loaded.day == "día-☀"
        assert loaded.lookup("café", "城市").value == "Zürich ☕"
        assert loaded.lookup("o1", "price").value == 10.5
        value = loaded.lookup("o2", "code").value
        assert value == "10.5" and isinstance(value, str)
        assert loaded.lookup("o3", "tiny").value == 1.25e-300
        assert str(loaded.lookup("o4", "neg").value) == "-0.0"
        assert loaded.trust("søurce-π") == 0.75

    def test_crash_mid_save_leaves_previous_file_intact(
        self, tmp_path, monkeypatch
    ):
        """A kill mid-save must never tear the store file on disk."""
        path = tmp_path / "store.json"
        store = TruthStore()
        store.publish("d0", {
            "Vote": _result("Vote", {("o1", "price"): 1.0}, {"s1": 0.9}),
        })
        store.save(path)
        good = path.read_text(encoding="utf-8")
        real_fdopen = os.fdopen

        def dying_fdopen(fd, *args, **kwargs):
            handle = real_fdopen(fd, *args, **kwargs)
            write = handle.write

            def dying_write(text):
                write(text[: len(text) // 2])               # partial write ...
                raise KeyboardInterrupt("killed mid-save")  # ... then the kill

            handle.write = dying_write
            return handle

        store.publish("d1", {
            "Vote": _result("Vote", {("o1", "price"): 2.0}, {"s1": 0.1}),
        })
        monkeypatch.setattr("repro.serving.os.fdopen", dying_fdopen)
        with pytest.raises(KeyboardInterrupt):
            store.save(path)
        monkeypatch.undo()
        # The previous complete file is still what readers load ...
        assert path.read_text(encoding="utf-8") == good
        assert TruthStore.load(path).lookup("o1", "price").value == 1.0
        # ... no temp debris survived, and a retry succeeds atomically.
        assert [p.name for p in tmp_path.iterdir()] == ["store.json"]
        store.save(path)
        assert TruthStore.load(path).lookup("o1", "price").value == 2.0

    def test_ensemble_tie_break_order_is_publish_order(self):
        """Ties break toward the earliest *published* method, not name
        order — pinned so the serving contract cannot drift silently."""
        store = TruthStore()
        store.publish("d0", {
            "Zebra": _result("Zebra", {("o1", "price"): 7.0}, {}),
            "Alpha": _result("Alpha", {("o1", "price"): 3.0}, {}),
        })
        assert store.ensemble("o1", "price").value == 7.0
        # Three-way tie: still the first of the publish order.
        store.publish("d1", {
            "M2": _result("M2", {("o1", "price"): 2.0}, {}),
            "M1": _result("M1", {("o1", "price"): 1.0}, {}),
            "M3": _result("M3", {("o1", "price"): 3.0}, {}),
        })
        assert store.ensemble("o1", "price").value == 2.0


class TestServicePublish:
    def test_exact_service_equals_unsharded_publish(self, dataset):
        from repro.fusion.base import FusionProblem

        service = TruthService(["Vote"])
        service.ingest(dataset)
        exact = service.store
        flat = TruthStore()
        flat.publish(
            dataset.day, {"Vote": make_method("Vote").run(FusionProblem(dataset))}
        )
        assert exact.snapshot().truths == flat.snapshot().truths
        assert exact.snapshot().trust == flat.snapshot().trust

    def test_empty_day_fails_and_leaves_the_store_unchanged(self, dataset):
        """A day that retracts every claim raises; nothing is published."""
        service = TruthService(["Vote", "AccuSim"])
        service.ingest(dataset)
        before = service.store.snapshot()
        everything = tuple(
            (source_id, item)
            for item, source_id, _claim in dataset.iter_claims()
        )
        with pytest.raises(FusionError):
            service.apply(ClaimDelta(day="d1", retracted=everything))
        after = service.store.snapshot()
        assert service.store.version == 1
        assert (after.day, after.truths, after.trust) == (
            before.day, before.truths, before.trust
        )


class TestRefreshSafety:
    def test_refresh_never_serves_a_torn_version(self):
        """Readers racing publishes must always see one coherent snapshot."""
        items = [(f"o{i}", "price") for i in range(40)]

        def results_for(v):
            return {
                "Vote": _result(
                    "Vote",
                    {key: float(v) for key in items},
                    {"s1": float(v)},
                )
            }

        store = TruthStore()
        store.publish("day0", results_for(0))
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                snap = store.snapshot()
                values = {
                    store.lookup(obj, attr, snapshot=snap).value
                    for obj, attr in items
                }
                if len(values) != 1:
                    errors.append(("torn truths", values))
                    return
                value = values.pop()
                trust = store.trust("s1", snapshot=snap)
                if trust != value:
                    errors.append(("trust from another version", value, trust))
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for v in range(1, 150):
            store.publish(f"day{v}", results_for(v))
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]
        assert store.version == 150

    def test_pinned_snapshot_survives_later_publishes(self):
        store = TruthStore()
        store.publish("d0", {"Vote": _result("Vote", {("o1", "price"): 1.0}, {})})
        snap = store.snapshot()
        store.publish("d1", {"Vote": _result("Vote", {("o1", "price"): 2.0}, {})})
        assert store.lookup("o1", "price").value == 2.0
        assert store.lookup("o1", "price", snapshot=snap).value == 1.0
        assert store.lookup("o1", "price", snapshot=snap).version == 1


def _publish_version(store, v):
    return store.publish(f"day{v}", {
        "Vote": _result("Vote", {("o1", "price"): float(v)}, {"s1": v / 1000}),
    })


class TestStoreWriter:
    """The background writer behind `cli serve`: one thread, newest version."""

    def test_saves_coalesce_to_the_newest_version(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        started, release = threading.Event(), threading.Event()
        saved = []
        save = TruthStore.save

        def slow_save(self, target):
            started.set()
            assert release.wait(10)
            save(self, target)
            saved.append(self.version)

        monkeypatch.setattr(TruthStore, "save", slow_save)
        store = TruthStore()
        with StoreWriter(store, path) as writer:
            _publish_version(store, 1)
            assert started.wait(10)  # the save of version 1 is in flight
            for v in (2, 3, 4):
                _publish_version(store, v)
            release.set()
            writer.flush()
        # Versions 2 and 3 were never written on their own.
        assert saved[-1] == 4 and len(saved) == 2
        assert TruthStore.load(path).version == 4
        assert not writer_threads()

    def test_failed_save_is_raised_in_the_callers_thread(
        self, tmp_path, monkeypatch
    ):
        def failing_save(self, target):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(TruthStore, "save", failing_save)
        store = TruthStore()
        writer = StoreWriter(store, tmp_path / "store.json")
        _publish_version(store, 1)
        with pytest.raises(StoreWriteError, match="No space left") as excinfo:
            writer.flush()
        assert isinstance(excinfo.value.__cause__, OSError)
        writer.close()  # raised once, not again
        assert not writer_threads()
        assert not (tmp_path / "store.json").exists()

    def test_failure_not_yet_raised_surfaces_on_close(self, tmp_path, monkeypatch):
        failed = threading.Event()

        def failing_save(self, target):
            failed.set()
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(TruthStore, "save", failing_save)
        store = TruthStore()
        writer = StoreWriter(store, tmp_path / "store.json")
        _publish_version(store, 1)
        assert failed.wait(10)
        with pytest.raises(StoreWriteError, match="Input/output error"):
            writer.close()
        assert not writer_threads()

    def test_stress_file_versions_never_go_backwards(self, tmp_path):
        """Readers of the file race 300 publishes on a fast switch interval:
        every read parses, versions never decrease, the last one lands."""
        path = tmp_path / "store.json"
        store = TruthStore()
        stop = threading.Event()
        errors = []

        def reader():
            last = 0
            while not stop.is_set():
                try:
                    text = path.read_text(encoding="utf-8")
                except FileNotFoundError:
                    continue
                version = json.loads(text)["version"]
                if version < last:
                    errors.append((last, version))
                    return
                last = version

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        try:
            with StoreWriter(store, path) as writer:
                for thread in readers:
                    thread.start()
                for v in range(1, 301):
                    _publish_version(store, v)
                flusher = threading.Thread(target=writer.flush)
                flusher.start()
                flusher.join(30)
                assert not flusher.is_alive(), "the last publish was lost"
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in readers:
                thread.join(10)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors, errors[:3]
        loaded = TruthStore.load(path)
        assert loaded.version == 300 and loaded.lookup("o1", "price").value == 300.0
        assert not writer_threads()

    def test_save_writes_compact_json(self, tmp_path):
        store = TruthStore()
        _publish_version(store, 1)
        path = tmp_path / "store.json"
        store.save(path)
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text and ": " not in text and ", " not in text
        assert TruthStore.load(path).snapshot() == store.snapshot()


class TestMonotonicPublishes:
    def _publish(self, store, day, value=1.0):
        return store.publish(day, {
            "Vote": _result("Vote", {("o1", "price"): value}, {}),
        })

    def test_default_store_allows_out_of_order_days(self):
        store = TruthStore()
        self._publish(store, "2011-07-05")
        assert self._publish(store, "2011-07-01") == 2  # legacy behaviour

    def test_monotonic_store_rejects_older_day(self):
        store = TruthStore(monotonic_days=True)
        self._publish(store, "2011-07-05", value=5.0)
        with pytest.raises(StalePublishError, match="2011-07-01"):
            self._publish(store, "2011-07-01", value=1.0)
        # The rejected publish changed nothing readers can observe.
        assert store.version == 1
        assert store.day == "2011-07-05"
        assert store.lookup("o1", "price").value == 5.0

    def test_monotonic_store_allows_same_day_republish_and_none_days(self):
        store = TruthStore(monotonic_days=True)
        self._publish(store, "2011-07-05", value=5.0)
        assert self._publish(store, "2011-07-05", value=6.0) == 2
        assert store.lookup("o1", "price").value == 6.0
        # Day-less publishes are never ordered, so never rejected.
        assert self._publish(store, None) == 3
        assert self._publish(store, "2011-07-06") == 4

    def test_stale_publish_error_is_a_fusion_error(self):
        assert issubclass(StalePublishError, FusionError)


class TestTruthService:
    def test_stream_days_become_store_versions(self, dataset):
        service = TruthService(["Vote", "AccuSim"])
        assert service.ingest(dataset) == 1
        store = service.store
        assert store.day == "d0"
        before = store.lookup("o1", "price")
        assert before.value == 10.0
        # s3 changes its o1 price to agree with nobody; majority holds.
        version = service.apply(ClaimDelta(
            day="d1",
            added=(("s3", DataItem("o1", "price"), Claim(value=99.0)),),
        ))
        assert version == 2
        assert store.day == "d1"
        assert store.lookup("o1", "price").value == 10.0
        assert store.lookup("o1", "price").version == 2
        # A delta that flips the majority flips the served truth.
        service.apply(ClaimDelta(
            day="d2",
            added=(
                ("s1", DataItem("o2", "price"), Claim(value=6.0)),
            ),
        ))
        assert store.lookup("o2", "price").value == 6.0
        assert store.version == 3

    def test_service_matches_a_direct_run(self, dataset):
        service = TruthService(["AccuSim"])
        service.ingest(dataset)
        reference = make_method("AccuSim").run(dataset)
        store = service.store
        for item, value in reference.selected.items():
            assert (
                store.lookup(item.object_id, item.attribute).value == value
            )
        for source, trust in reference.trust.items():
            assert store.trust(source) == pytest.approx(trust, abs=1e-12)
