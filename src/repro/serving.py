"""The queryable truth-serving layer: versioned stores over fused truths.

Fusing a corpus answers *every* item at once, but serving traffic asks for
one ``(object, attribute)`` at a time and cannot wait for a solve.  This
module is the read path:

* :class:`TruthStore` — an immutable-snapshot, versioned store of fused
  truths.  Writers build a complete new :class:`StoreSnapshot` and swap it
  in atomically (one reference assignment under a lock), so readers —
  which never lock — can never observe a torn version: every answer they
  compute comes from exactly one published snapshot and carries its
  version.  Queries are point lookups by ``(object, attribute)`` (per
  method or the store's default), per-source trust reads, and
  method-ensemble answers (majority vote across the published methods).
  Publishing accepts a plain ``{method: FusionResult}`` mapping or a
  :class:`~repro.streaming.StreamStep` (the incremental path: each
  :class:`~repro.streaming.StreamRunner` day is delta-compiled by the
  series compiler and republished here).
* :class:`TruthService` — glue that owns a :class:`StreamRunner` and a
  store: ``ingest(dataset)`` / ``apply(delta)`` advance the runner's warm
  methods one day and publish the day's results as the next store version.
  It solves inline and owns no worker pool: fanning a day's few methods out
  to workers measured slower than solving them in process.

Stores serialize to JSON (:meth:`TruthStore.save` / :meth:`TruthStore.load`)
so ``cli serve`` can solve once and ``cli query`` can answer point lookups
from the file without ever re-solving.  :class:`StoreWriter` keeps that
file current from a background thread, so publishing the next day never
waits on the previous day's save.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.records import Value
from repro.errors import (
    FusionError,
    StalePublishError,
    StoreWriteError,
    ValueParseError,
)
from repro.io import PathLike, _decode_value, _encode_value

__all__ = [
    "TruthAnswer",
    "StoreSnapshot",
    "TruthStore",
    "StoreWriter",
    "TruthService",
]


ItemKey = Tuple[str, str]  # (object_id, attribute)


@dataclass(frozen=True)
class TruthAnswer:
    """One point-query answer, stamped with the snapshot it came from."""

    object_id: str
    attribute: str
    value: Value
    method: str
    version: int
    day: Optional[str]


@dataclass(frozen=True)
class StoreSnapshot:
    """One immutable published version of the store.

    ``truths`` maps ``(object_id, attribute)`` to the per-method selected
    values; ``trust`` maps method -> source -> trustworthiness.  Snapshots
    are never mutated after publication — readers holding one can issue any
    number of internally-consistent queries against it.
    """

    version: int
    day: Optional[str] = None
    methods: Tuple[str, ...] = ()
    truths: Dict[ItemKey, Dict[str, Value]] = field(default_factory=dict)
    trust: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def n_items(self) -> int:
        return len(self.truths)


class TruthStore:
    """A versioned, queryable store of fused truths (see module docstring).

    With ``monotonic_days=True`` publishes must carry nondecreasing days
    (lexicographic order — days are ISO-date-like strings): a delayed
    re-publish of an older day raises :class:`~repro.errors.StalePublishError`
    instead of silently overwriting a newer snapshot.  The HTTP front-end
    (:mod:`repro.server`) enables it, because its publish loop is exactly
    where out-of-order completion is real.  Re-publishing the *same* day is
    always allowed (it is how a day's refreshed solve lands).
    """

    def __init__(self, *, monotonic_days: bool = False):
        self._snapshot = StoreSnapshot(version=0)
        self._lock = threading.Lock()
        self._monotonic_days = bool(monotonic_days)
        self._listeners: List[Callable[[StoreSnapshot], None]] = []

    # ---------------------------------------------------------------- reads
    def snapshot(self) -> StoreSnapshot:
        """The current published snapshot (grab once for multi-read queries)."""
        return self._snapshot

    @property
    def version(self) -> int:
        return self._snapshot.version

    @property
    def day(self) -> Optional[str]:
        return self._snapshot.day

    @property
    def methods(self) -> Tuple[str, ...]:
        return self._snapshot.methods

    @property
    def n_items(self) -> int:
        return self._snapshot.n_items

    def lookup(
        self,
        object_id: str,
        attribute: str,
        method: Optional[str] = None,
        snapshot: Optional[StoreSnapshot] = None,
    ) -> Optional[TruthAnswer]:
        """The fused truth of one data item (``None`` if unknown).

        ``method`` defaults to the first published method.  Pass a
        ``snapshot`` (from :meth:`snapshot`) to pin several lookups to one
        version.
        """
        snap = snapshot if snapshot is not None else self._snapshot
        values = snap.truths.get((object_id, attribute))
        if values is None:
            return None
        if method is None:
            method = snap.methods[0] if snap.methods else None
        if method is None or method not in values:
            return None
        return TruthAnswer(
            object_id=object_id,
            attribute=attribute,
            value=values[method],
            method=method,
            version=snap.version,
            day=snap.day,
        )

    def ensemble(
        self,
        object_id: str,
        attribute: str,
        snapshot: Optional[StoreSnapshot] = None,
    ) -> Optional[TruthAnswer]:
        """Majority vote across the published methods' answers.

        Values are pooled by exact equality (method selections share the
        cluster representatives, so agreeing methods agree exactly); ties
        break toward the earliest method in publish order.
        """
        snap = snapshot if snapshot is not None else self._snapshot
        values = snap.truths.get((object_id, attribute))
        if not values:
            return None
        candidates: List[Tuple[Value, int, int]] = []  # value, votes, first order
        for order, method in enumerate(snap.methods):
            value = values.get(method)
            if value is None:
                continue
            for i, (existing, votes, first) in enumerate(candidates):
                if existing == value:
                    candidates[i] = (existing, votes + 1, first)
                    break
            else:
                candidates.append((value, 1, order))
        if not candidates:
            return None
        best = min(candidates, key=lambda c: (-c[1], c[2]))
        return TruthAnswer(
            object_id=object_id,
            attribute=attribute,
            value=best[0],
            method="Ensemble",
            version=snap.version,
            day=snap.day,
        )

    def trust(
        self,
        source_id: str,
        method: Optional[str] = None,
        snapshot: Optional[StoreSnapshot] = None,
    ) -> Optional[float]:
        """The published trustworthiness of one source (``None`` if unknown)."""
        snap = snapshot if snapshot is not None else self._snapshot
        if method is None:
            method = snap.methods[0] if snap.methods else None
        if method is None:
            return None
        return snap.trust.get(method, {}).get(source_id)

    # --------------------------------------------------------------- writes
    def add_listener(self, callback: Callable[[StoreSnapshot], None]) -> None:
        """Register ``callback(snapshot)`` invoked after every publish.

        Callbacks run under the publish lock so they observe versions in
        order; keep them cheap (the HTTP front-end bridges into its event
        loop with ``call_soon_threadsafe`` and returns immediately).
        """
        with self._lock:
            self._listeners.append(callback)

    def _swap(
        self,
        day: Optional[str],
        methods: Sequence[str],
        truths: Dict[ItemKey, Dict[str, Value]],
        trust: Dict[str, Dict[str, float]],
    ) -> int:
        with self._lock:
            current = self._snapshot
            if (
                self._monotonic_days
                and day is not None
                and current.day is not None
                and day < current.day
            ):
                raise StalePublishError(
                    f"publish of day {day!r} rejected: the store already "
                    f"serves day {current.day!r} (version {current.version}) "
                    "and was built with monotonic_days=True"
                )
            snapshot = StoreSnapshot(
                version=current.version + 1,
                day=day,
                methods=tuple(methods),
                truths=truths,
                trust=trust,
            )
            self._snapshot = snapshot
            for listener in self._listeners:
                listener(snapshot)
            return snapshot.version

    def publish(self, day: Optional[str], results: Dict[str, object]) -> int:
        """Publish one day's ``{method: FusionResult}``; returns the version."""
        if not results:
            raise FusionError("publish needs at least one method result")
        methods = list(results)
        truths: Dict[ItemKey, Dict[str, Value]] = {}
        trust: Dict[str, Dict[str, float]] = {}
        for method in methods:
            result = results[method]
            for item, value in result.selected.items():
                truths.setdefault((item.object_id, item.attribute), {})[method] = value
            trust[method] = dict(result.trust)
        return self._swap(day, methods, truths, trust)

    def publish_step(self, step) -> int:
        """Publish one :class:`~repro.streaming.StreamStep` (incremental path)."""
        return self.publish(step.day, step.results)

    # -------------------------------------------------------------- persist
    def save(self, path: PathLike) -> None:
        """Serialize the current snapshot to JSON (the ``cli serve`` output).

        The write is atomic: the payload lands in a temporary file in the
        target's directory and is :func:`os.replace`\\ d over ``path``, so a
        crash mid-write can never leave a torn store behind — readers (and
        ``cli query``) see either the previous complete file or the new one.
        """
        snap = self._snapshot
        payload = {
            "version": snap.version,
            "day": snap.day,
            "methods": list(snap.methods),
            "truths": [
                {
                    "object": object_id,
                    "attribute": attribute,
                    "values": {
                        method: _encode_value(value)
                        for method, value in values.items()
                    },
                }
                for (object_id, attribute), values in sorted(snap.truths.items())
            ],
            "trust": snap.trust,
        }
        target = os.fspath(path)
        directory = os.path.dirname(target) or "."
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # json.dumps, unlike json.dump, runs the C encoder.
                handle.write(json.dumps(payload, separators=(",", ":")))
            os.replace(tmp_path, target)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: PathLike) -> "TruthStore":
        """Load a store written by :meth:`save`; queries need no solver.

        A payload of the wrong shape raises
        :class:`~repro.errors.ValueParseError`.
        """
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        store = cls()
        truths: Dict[ItemKey, Dict[str, Value]] = {}
        try:
            for entry in payload["truths"]:
                truths[(entry["object"], entry["attribute"])] = {
                    method: _decode_value(text)
                    for method, text in entry["values"].items()
                }
            store._snapshot = StoreSnapshot(
                version=int(payload["version"]),
                day=payload.get("day"),
                methods=tuple(payload["methods"]),
                truths=truths,
                trust={
                    method: dict(by_source)
                    for method, by_source in payload["trust"].items()
                },
            )
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ValueParseError(
                f"malformed store payload: {type(error).__name__}: {error}"
            ) from None
        return store


class StoreWriter:
    """Keeps one store file at the newest version a :class:`TruthStore` published.

    One background thread (named ``store-writer``) calls
    :meth:`TruthStore.save` whenever the store holds a version newer than
    the last one it wrote; versions published while a save runs coalesce,
    and the next save writes only the newest.  With a single writer and
    atomic saves, the file always holds one complete published version and
    its version never goes backwards.

    :meth:`flush` waits until the file holds the newest published version.
    :meth:`close` lets the save in flight finish, drops any newer pending
    version and joins the thread.  A failed save stops the thread; the
    failure is raised as :class:`~repro.errors.StoreWriteError` in the
    caller's thread by the next :meth:`check`, :meth:`flush` or
    :meth:`close`.
    """

    def __init__(self, store: TruthStore, path: PathLike):
        self._store = store
        self._path = path
        self._cond = threading.Condition()
        self._published = store.version
        self._written = 0
        self._closing = False
        self._failure: Optional[BaseException] = None
        self._failure_raised = False
        store.add_listener(self._on_publish)
        self._thread = threading.Thread(
            target=self._run, name="store-writer", daemon=True
        )
        self._thread.start()

    def _on_publish(self, snapshot: StoreSnapshot) -> None:
        with self._cond:
            self._published = snapshot.version
            self._cond.notify_all()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._closing and self._written >= self._published:
                    self._cond.wait()
                if self._closing:
                    return
                # save() reads the store's snapshot after this point, so the
                # file ends up at this version or a newer one.
                version = self._published
            try:
                self._store.save(self._path)
            except BaseException as error:  # raised again by check()
                with self._cond:
                    self._failure = error
                    self._cond.notify_all()
                return
            with self._cond:
                self._written = version
                self._cond.notify_all()

    def check(self) -> None:
        """Raise :class:`~repro.errors.StoreWriteError` if a save failed."""
        with self._cond:
            failure = None if self._failure_raised else self._failure
            self._failure_raised = self._failure is not None
        if failure is not None:
            raise StoreWriteError(
                f"cannot write store {os.fspath(self._path)}: "
                f"{type(failure).__name__}: {failure}"
            ) from failure

    def flush(self) -> None:
        """Block until the file holds the newest published version."""
        with self._cond:
            while self._failure is None and self._written < self._published:
                self._cond.wait()
        self.check()

    def close(self) -> None:
        """Finish the save in flight, drop newer pending versions, join."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._thread.join()
        self.check()

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TruthService:
    """A stream of daily snapshots/deltas kept queryable through a store.

    One :class:`~repro.streaming.StreamRunner` (shared delta compiler, warm
    per-method trust, solved inline) feeds one
    :class:`TruthStore`: every ingested day becomes the next store version,
    so reads stay consistent while the solve of the following day runs.
    One snapshot is a one-day stream: ``TruthService(methods).ingest(dataset)``
    serves a single corpus.
    """

    def __init__(
        self,
        method_names: Sequence[str],
        method_kwargs: Optional[Dict[str, dict]] = None,
        *,
        warm_start: bool = True,
        store: Optional[TruthStore] = None,
    ):
        from repro.streaming import StreamRunner

        self.runner = StreamRunner(
            method_names, method_kwargs, warm_start=warm_start
        )
        self.store = store if store is not None else TruthStore()

    def ingest(self, dataset) -> int:
        """Fuse one full daily snapshot and publish it; returns the version."""
        return self.store.publish_step(self.runner.push(dataset))

    def apply(self, delta) -> int:
        """Apply one :class:`~repro.core.delta.ClaimDelta` and publish it."""
        return self.store.publish_step(self.runner.push_delta(delta))

    # The service holds no pool, thread or file, so a ``with`` block has
    # nothing to release; it stays valid for callers that scope it so.
    def __enter__(self) -> "TruthService":
        return self

    def __exit__(self, *exc_info) -> None:
        return None
