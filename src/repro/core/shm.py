"""Shared-memory export of numpy array bundles.

The parallel execution engine (:mod:`repro.parallel`) fans fusion solves out
to worker processes.  The solver kernels only read flat numpy arrays — the
columnar view columns and the compiled :class:`~repro.fusion.base.FusionProblem`
arrays — so instead of pickling megabytes of arrays into every worker, the
parent packs each problem's arrays **once** into a single
``multiprocessing.shared_memory`` segment and ships workers a tiny
:class:`BundleDescriptor` (segment name + per-array dtype/shape/offset).
Workers rehydrate zero-copy read-only views over the same physical pages.

Ownership contract: the *creator* of a :class:`SharedArrayBundle` is
responsible for ``unlink()``; attachers only ``close()``.

:class:`ViewBundle` is the one export shape: the raw
:class:`~repro.core.columnar.ColumnarView` columns plus whatever compiled
arrays the exporter adds in the same segment.  The parallel engine adds a
problem's compiled arrays (:func:`repro.parallel._export_problem`) and
workers rebuild the view with :meth:`ViewBundle.rebuild_view`.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised implicitly on import
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without POSIX shm
    _shared_memory = None

#: Prefix of every segment this library creates (leak checks key off it).
SEGMENT_PREFIX = "reprofuse_"
#: Array payloads are aligned so vector loads stay aligned.
_ALIGN = 64


def shared_memory_available() -> bool:
    """Whether this platform supports ``multiprocessing.shared_memory``."""
    return _shared_memory is not None


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside a shared segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class BundleDescriptor:
    """Everything a worker needs to attach a bundle (small and picklable)."""

    segment: str
    specs: Tuple[ArraySpec, ...]
    nbytes: int


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedArrayBundle:
    """Creator-side handle: named arrays packed into one shm segment."""

    def __init__(self, shm, descriptor: BundleDescriptor):
        self._shm = shm
        self.descriptor = descriptor

    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray]) -> "SharedArrayBundle":
        if _shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        specs = []
        offset = 0
        contiguous: Dict[str, np.ndarray] = {}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            contiguous[name] = array
            offset = _aligned(offset)
            specs.append(
                ArraySpec(
                    name=name,
                    dtype=array.dtype.str,
                    shape=tuple(array.shape),
                    offset=offset,
                )
            )
            offset += array.nbytes
        total = max(offset, 1)
        shm = _shared_memory.SharedMemory(
            create=True,
            size=total,
            name=SEGMENT_PREFIX + secrets.token_hex(8),
        )
        for spec, name in zip(specs, contiguous):
            source = contiguous[name]
            if source.nbytes:
                view = np.ndarray(
                    source.shape, dtype=source.dtype,
                    buffer=shm.buf, offset=spec.offset,
                )
                view[...] = source
        descriptor = BundleDescriptor(
            segment=shm.name, specs=tuple(specs), nbytes=total
        )
        return cls(shm, descriptor)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        try:
            self._shm.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


#: The columnar-view array columns a :class:`ViewBundle` exports, in order.
VIEW_ARRAY_FIELDS = (
    "item_attr",
    "item_start",
    "claim_item",
    "claim_source",
    "claim_value",
    "claim_numeric",
    "claim_granularity",
    "value_numeric",
    "value_str_rank",
)


def view_arrays(view) -> Dict[str, np.ndarray]:
    """The packable numpy columns of a ``ColumnarView`` (``v_``-prefixed)."""
    return {f"v_{name}": getattr(view, name) for name in VIEW_ARRAY_FIELDS}


class ViewBundle(SharedArrayBundle):
    """A columnar view in shared memory, plus the exporter's ``extras``.

    ``extras`` ride along in the same segment (a problem export's compiled
    arrays).  The Python object tables (items, sources, interned values,
    attribute specs) are *not* arrays and travel in the exporter's pickle
    sidecar.
    """

    @classmethod
    def create_from_view(
        cls, view, extras: Optional[Dict[str, np.ndarray]] = None
    ) -> "ViewBundle":
        arrays = view_arrays(view)
        if extras:
            arrays.update(extras)
        return cls.create(arrays)

    @staticmethod
    def rebuild_view(bundle: "AttachedBundle", tables: Dict[str, object]):
        """A zero-copy ``ColumnarView`` over an attached view bundle.

        ``tables`` supplies the sidecar's object tables (``items``,
        ``sources``, ``attr_names``, ``attr_specs``, ``values``).
        """
        from repro.core.columnar import ColumnarView

        return ColumnarView(
            items=tables["items"],
            sources=tables["sources"],
            attr_names=tables["attr_names"],
            attr_specs=tables["attr_specs"],
            values=tables["values"],
            **{name: bundle[f"v_{name}"] for name in VIEW_ARRAY_FIELDS},
        )


class AttachedBundle:
    """Worker-side handle: zero-copy read-only views over a shared segment.

    Keep the instance alive as long as any of its arrays is in use — the
    views borrow the segment's buffer.
    """

    def __init__(self, descriptor: BundleDescriptor):
        if _shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        # Attaching re-registers the segment with the resource tracker; the
        # tracker process is shared across the (forked/spawned) pool, and its
        # name cache is a set, so the re-registration is a no-op and the
        # creator's single unlink keeps the books balanced.  Do NOT
        # unregister here — that would strip the creator's entry.
        self._shm = _shared_memory.SharedMemory(name=descriptor.segment)
        self.arrays: Dict[str, np.ndarray] = {}
        for spec in descriptor.specs:
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=self._shm.buf,
                offset=spec.offset,
            )
            view.flags.writeable = False
            self.arrays[spec.name] = view

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def get(self, name: str) -> Optional[np.ndarray]:
        return self.arrays.get(name)

    def close(self) -> None:
        self.arrays = {}
        try:
            self._shm.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
