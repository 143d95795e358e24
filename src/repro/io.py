"""Import/export: claim tables as CSV, fusion results as JSON.

A downstream user's data rarely starts as a :class:`~repro.core.Dataset`;
this module round-trips the library's objects through plain files:

* :func:`write_claims_csv` / :func:`read_claims_csv` — the sparse claim
  matrix as ``source,object,attribute,value,granularity`` rows, with an
  attribute-spec header section so value kinds survive the round trip;
* :class:`ClaimsDayReader` — a directory of daily claims CSVs, each file
  after the first diffed against the last consumed one and read as a
  :class:`~repro.core.delta.ClaimDelta`;
* :func:`write_result_json` / :func:`read_result_json` — a
  :class:`~repro.fusion.base.FusionResult` (selected values + trust);
* :func:`write_gold_csv` / :func:`read_gold_csv` — gold standards.

Everything is stdlib ``csv``/``json``; no extra dependencies.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np

from repro.core.attributes import AttributeSpec, AttributeTable, ValueKind
from repro.core.dataset import Dataset
from repro.core.delta import ClaimDelta
from repro.core.gold import GoldStandard
from repro.core.records import Claim, DataItem, SourceCategory, SourceMeta, Value
from repro.errors import ValueParseError
from repro.fusion.base import FusionResult

PathLike = Union[str, Path]

_KIND_TAG = "#attribute"
_SOURCE_TAG = "#source"
_CLAIM_COLUMNS = ("source", "object", "attribute", "value", "granularity")


def _encode_value(value: Value) -> str:
    if isinstance(value, str):
        return f"s:{value}"
    return f"f:{float(value)!r}"


def _decode_value(text: str) -> Value:
    if text.startswith("s:"):
        return text[2:]
    if text.startswith("f:"):
        try:
            return float(text[2:])
        except ValueError:
            raise ValueParseError(f"bad float payload {text!r}") from None
    raise ValueParseError(f"untagged value payload {text!r}")


def write_claims_csv(dataset: Dataset, path: PathLike) -> None:
    """Write a snapshot's claims (plus schema and source metadata) to CSV."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["domain", dataset.domain, "day", dataset.day])
        for spec in dataset.attributes:
            writer.writerow(
                [_KIND_TAG, spec.name, spec.kind.value,
                 repr(spec.tolerance_factor), int(spec.statistical)]
            )
        for meta in dataset.sources.values():
            writer.writerow(
                [_SOURCE_TAG, meta.source_id, meta.name,
                 meta.category.value, int(meta.is_authority)]
            )
        writer.writerow(_CLAIM_COLUMNS)
        for item, source_id, claim in dataset.iter_claims():
            writer.writerow([
                source_id,
                item.object_id,
                item.attribute,
                _encode_value(claim.value),
                "" if claim.granularity is None else repr(claim.granularity),
            ])


def _claim_from_row(row: List[str]) -> Tuple[str, DataItem, Claim]:
    """One ``source,object,attribute,value,granularity`` record."""
    if len(row) != len(_CLAIM_COLUMNS):
        raise ValueParseError(
            f"claim row has {len(row)} fields, expected {len(_CLAIM_COLUMNS)}"
        )
    source_id, object_id, attribute, payload, granularity = row
    value = _decode_value(payload)
    step: Optional[float] = None
    if granularity:
        try:
            step = float(granularity)
        except ValueError:
            step = math.nan
        if not 0.0 < step < math.inf:  # a rounding step is finite and > 0
            raise ValueParseError(f"bad granularity {granularity!r}")
    return source_id, DataItem(object_id, attribute), Claim(value, step)


def _meta_from_row(row: List[str], path: PathLike, line: int):
    """An ``#attribute`` or ``#source`` header row as its spec/metadata."""
    try:
        if row[0] == _KIND_TAG:
            return AttributeSpec(
                name=row[1],
                kind=ValueKind(row[2]),
                tolerance_factor=float(row[3]),
                statistical=bool(int(row[4])),
            )
        return SourceMeta(
            source_id=row[1],
            name=row[2],
            category=SourceCategory(row[3]),
            is_authority=bool(int(row[4])),
        )
    except (ValueError, IndexError) as error:
        raise ValueParseError(
            f"{path}, line {line}: bad {row[0]} row: {error}"
        ) from None


def read_claims_csv(path: PathLike) -> Dataset:
    """Read a dataset written by :func:`write_claims_csv` (frozen).

    A malformed row, or a second row for one ``(source, object,
    attribute)`` cell, raises :class:`~repro.errors.ValueParseError`
    naming the file and the line.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            if len(header) < 4 or header[0] != "domain":
                raise ValueParseError(f"{path}: not a claims CSV (bad header)")
            domain, day = header[1], header[3]

            table = AttributeTable()
            sources = []
            claims = []
            claim_lines = array("l")  # file line of each claim, for errors
            in_claims = False
            for row in reader:
                if not row:
                    continue
                if row[0] == _KIND_TAG:
                    table.add(_meta_from_row(row, path, reader.line_num))
                elif row[0] == _SOURCE_TAG:
                    sources.append(_meta_from_row(row, path, reader.line_num))
                elif row[0] == "source" and not in_claims:
                    in_claims = True
                else:
                    claims.append(row)
                    claim_lines.append(reader.line_num)
        except UnicodeDecodeError as error:
            raise ValueParseError(f"{path}: not UTF-8 text ({error})") from None

    dataset = Dataset(domain=domain, day=day, attributes=table)
    for meta in sources:
        dataset.add_source(meta)
    for index, row in enumerate(claims):
        try:
            source_id, item, claim = _claim_from_row(row)
        except ValueParseError as error:
            raise ValueParseError(
                f"{path}, line {claim_lines[index]}: {error}"
            ) from None
        dataset.add_claim(source_id, item, claim)
    if dataset.num_claims != len(claims):
        seen = set()
        for index, row in enumerate(claims):
            cell = tuple(row[:3])
            if cell in seen:
                raise ValueParseError(
                    f"{path}, line {claim_lines[index]}: second claim by "
                    f"{cell[0]!r} on ({cell[1]!r}, {cell[2]!r})"
                )
            seen.add(cell)
    return dataset.freeze()


# ------------------------------------------------------------ daily files
_META_LINES = (_KIND_TAG.encode() + b",", _SOURCE_TAG.encode() + b",")
_CHUNK = 4096  # lines per step when diffing, to bound temporaries


@dataclass(frozen=True)
class _DiffBase:
    """The last consumed day's claim records, kept to diff the next file."""

    header: Tuple[Tuple[str, ...], bytes]
    records: np.ndarray  # sorted fixed-width bytes, one claim line each
    sources: FrozenSet[str]
    attributes: FrozenSet[str]


@dataclass
class ClaimsDay:
    """One daily claims CSV, read as a full snapshot or as a change set.

    Exactly one of ``dataset`` and ``delta`` is set.  Hand the day to
    :meth:`ClaimsDayReader.push`; it becomes the reader's next diff base.
    """

    path: Path
    dataset: Optional[Dataset] = None
    delta: Optional[ClaimDelta] = None
    _base: Optional[_DiffBase] = None  # delta days: the base they leave
    _stat: Optional[Tuple[int, int]] = None  # snapshot days: file size, mtime
    _schema: Tuple[FrozenSet[str], FrozenSet[str]] = (frozenset(), frozenset())


def _file_stat(path: PathLike) -> Tuple[int, int]:
    stat = os.stat(path)
    return stat.st_size, stat.st_mtime_ns


def _split_claims_file(path: PathLike):
    """``(stat, header, day, records)`` of a claims CSV, or ``None`` when
    its claim records cannot be diffed line by line.

    ``header`` is the header section minus the day label; ``records`` holds
    the claim lines in file order, line endings stripped, as one
    fixed-width bytes array.  Every line is one canonical claim record (see
    :func:`_record_row`).
    """
    stat = _file_stat(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    eol = b"\n"
    n_cr = blob.count(b"\r")
    if n_cr:
        if blob.count(b"\r\n") != n_cr:
            return None  # a bare CR ends a csv row but not a line here
        if n_cr == blob.count(b"\n"):
            eol = b"\r\n"
        else:
            blob = blob.replace(b"\r\n", b"\n")
    if b"\x00" in blob:
        return None
    header_lines = []
    start = 0
    while True:
        end = blob.find(eol, start)
        if end < 0:
            return None  # no claim section
        line = blob[start:end]
        start = end + len(eol)
        if line.count(b'"') % 2:
            return None  # a quoted header field spans lines
        header_lines.append(line)
        if len(header_lines) > 1 and not line.startswith(_META_LINES):
            break
    if not header_lines[-1].startswith(b"source,"):
        return None
    try:
        first = next(csv.reader([header_lines[0].decode("utf-8")]))
    except (StopIteration, UnicodeDecodeError, csv.Error):
        return None
    if len(first) < 4 or first[0] != "domain":
        return None
    header = (tuple(first[:3] + first[4:]), b"\n".join(header_lines[1:]))

    body = blob[start:]
    del blob
    if (
        body.startswith(eol)
        or eol + eol in body  # a blank line: csv skips it
        or body.startswith(_META_LINES)
        or (b"\n#" in body and any(eol + tag in body for tag in _META_LINES))
    ):
        return None
    lines = body.split(eol)
    quoted = b'"' in body
    n_bytes = len(body)
    del body
    if lines[-1] == b"":
        lines.pop()
    if quoted and any(
        b'"' in line and _record_row(line) is None for line in lines
    ):
        return None
    width = max(map(len, lines), default=1)
    if width * len(lines) > 4 * n_bytes + (1 << 20):
        return None  # one long line would blow every fixed-width slot up
    records = np.empty(len(lines), dtype=f"S{width}")
    while lines:
        # Back to front, freeing each chunk's bytes objects as it lands.
        start = max(len(lines) - _CHUNK, 0)
        records[start:len(lines)] = lines[start:]
        del lines[start:]
    return stat, header, first[3], records


def _record_row(line: bytes) -> Optional[List[str]]:
    """The fields of one claim line, or ``None`` unless writing them back
    reproduces the line byte for byte (one record per line, canonical
    quoting) and the line is a claim rather than a header row."""
    try:
        text = line.decode("utf-8")
        row = next(csv.reader([text]))
    except (UnicodeDecodeError, StopIteration, csv.Error):
        return None
    if '"' in text and _csv_text(row) != text:
        return None
    if row[0] in (_KIND_TAG, _SOURCE_TAG):
        return None
    return row


def _csv_text(row: List[str]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(row)
    return buffer.getvalue()


class ClaimsDayReader:
    """Reads a stream of daily claims CSVs as snapshots or change sets.

    The first file goes through :func:`read_claims_csv` whole.  Every later
    file is diffed line by line against the last consumed one, and only
    the added and removed claim lines are parsed, into a
    :class:`~repro.core.delta.ClaimDelta`: adds in file order (so new items
    intern in the order a snapshot ingest gives them), and a retraction
    for each removed line's cell unless an added line refills it.  A
    header change other than the day label, or a file the line diff cannot
    read exactly (a quoted field spanning lines, non-canonical quoting, a
    blank line, a malformed or repeated cell), goes through
    :func:`read_claims_csv` whole instead, which also raises that file's
    :class:`~repro.errors.ValueParseError`.

    Only :meth:`push` advances the diff base, so a day that fails to read
    leaves the next file diffed against the last day actually consumed.
    """

    def __init__(self) -> None:
        self._base: Optional[_DiffBase] = None
        self._unbuilt: Optional[ClaimsDay] = None  # consumed, base not built

    def read(self, path: PathLike) -> ClaimsDay:
        """Read one day's file; the diff base stays where it is."""
        if self._unbuilt is not None:
            # Built here rather than in push, so the snapshot day publishes
            # without waiting for it.
            self._base, self._unbuilt = _snapshot_base(self._unbuilt), None
        path = Path(path)
        if self._base is not None:
            day = _diff_day(path, self._base)
            if day is not None:
                return day
        stat = _file_stat(path)
        dataset = read_claims_csv(path)
        return ClaimsDay(
            path,
            dataset=dataset,
            _stat=stat,
            _schema=(
                frozenset(dataset.sources),
                frozenset(dataset.attributes.names),
            ),
        )

    def push(self, day: ClaimsDay, runner):
        """Advance a :class:`~repro.streaming.StreamRunner` by ``day``.

        The day becomes the diff base once the runner has it, whatever
        happens to the step afterwards.  A snapshot day hands its dataset
        over; its base is built from the file by the next :meth:`read`.
        """
        if day.delta is not None:
            step = runner.push_delta(day.delta)
            self._base, self._unbuilt = day._base, None
            return step
        dataset, day.dataset = day.dataset, None
        step = runner.push(dataset)
        self._base, self._unbuilt = None, day
        return step


def _snapshot_base(day: ClaimsDay) -> Optional[_DiffBase]:
    """The diff base a snapshot day leaves, if its file can be diffed."""
    split = _split_claims_file(day.path)
    if split is None or split[0] != day._stat:
        return None  # not diffable, or rewritten since it was parsed
    lines = split[3]
    lines.sort()
    return _DiffBase(split[1], lines, *day._schema)


def _line_diff(old: np.ndarray, new: np.ndarray):
    """``(kept, added, lines)``: a mask of the ``old`` lines ``new`` keeps,
    the lines it adds (file order), and all its lines sorted; ``None``
    when a line repeats.  Temporaries are bounded by chunks of lines."""
    at = np.searchsorted(old, new)
    hit = np.zeros(len(new), dtype=bool)
    if len(old):
        np.minimum(at, len(old) - 1, out=at)
        for start in range(0, len(new), _CHUNK):
            part = slice(start, start + _CHUNK)
            hit[part] = old[at[part]] == new[part]
    kept = np.zeros(len(old), dtype=bool)
    kept[at[hit]] = True
    n_kept = int(kept.sum())
    if n_kept != int(hit.sum()):
        return None
    added = new[~hit]
    lines = np.empty(n_kept + len(added), dtype=np.result_type(old, added))
    filled = 0
    for start in range(0, len(old), _CHUNK):
        part = old[start:start + _CHUNK][kept[start:start + _CHUNK]]
        lines[filled:filled + len(part)] = part
        filled += len(part)
    lines[filled:] = added
    lines.sort(kind="stable")  # a sorted run plus a short tail
    return kept, added, lines


def _diff_day(path: Path, base: _DiffBase) -> Optional[ClaimsDay]:
    """The day as a delta against ``base``; ``None`` sends it down the
    snapshot path."""
    split = _split_claims_file(path)
    if split is None or split[1] != base.header:
        return None
    _stat, header, label, new = split
    del split
    diff = _line_diff(base.records, new)
    del new
    if diff is None:
        return None  # a repeated line: read_claims_csv names it
    kept, added, lines = diff

    adds = []
    cells = set()
    prefixes = []
    for line in added.tolist():
        row = _record_row(line)
        if row is None:
            return None
        try:
            source_id, item, claim = _claim_from_row(row)
        except ValueParseError:
            return None  # read_claims_csv names the line
        if source_id not in base.sources or item.attribute not in base.attributes:
            return None  # read_claims_csv raises the SchemaError
        adds.append((source_id, item, claim))
        cells.add((source_id, item))
        prefixes.append(_csv_text(row[:3]).encode("utf-8") + b",")
    if prefixes:
        # The lines of one cell share its "source,object,attribute," prefix,
        # so they sit next to each other in the sorted lines.
        low = np.array(prefixes, dtype=np.bytes_)
        high = np.array([p[:-1] + b"-" for p in prefixes], dtype=np.bytes_)
        if np.any(np.searchsorted(lines, high) - np.searchsorted(lines, low) > 1):
            return None  # a second claim on one cell: read_claims_csv names it
    retracted = []
    for line in base.records[~kept].tolist():
        source_id, object_id, attribute = _record_row(line)[:3]
        item = DataItem(object_id, attribute)
        if (source_id, item) not in cells:
            retracted.append((source_id, item))
    return ClaimsDay(
        path,
        delta=ClaimDelta(day=label, added=tuple(adds), retracted=tuple(retracted)),
        _base=_DiffBase(header, lines, base.sources, base.attributes),
    )


def write_result_json(result: FusionResult, path: PathLike) -> None:
    """Serialize a fusion result (selected values, trust, run metadata)."""
    payload = {
        "method": result.method,
        "rounds": result.rounds,
        "converged": result.converged,
        "runtime_seconds": result.runtime_seconds,
        "selected": [
            {
                "object": item.object_id,
                "attribute": item.attribute,
                "value": _encode_value(value),
            }
            for item, value in sorted(result.selected.items())
        ],
        "trust": result.trust,
        "attr_trust": (
            None
            if result.attr_trust is None
            else [
                {"source": s, "attribute": a, "trust": t}
                for (s, a), t in sorted(result.attr_trust.items())
            ]
        ),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def read_result_json(path: PathLike) -> FusionResult:
    """Load a fusion result written by :func:`write_result_json`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    selected = {
        DataItem(entry["object"], entry["attribute"]): _decode_value(entry["value"])
        for entry in payload["selected"]
    }
    attr_trust: Optional[Dict] = None
    if payload.get("attr_trust") is not None:
        attr_trust = {
            (entry["source"], entry["attribute"]): entry["trust"]
            for entry in payload["attr_trust"]
        }
    return FusionResult(
        method=payload["method"],
        selected=selected,
        trust=payload["trust"],
        attr_trust=attr_trust,
        rounds=payload["rounds"],
        converged=payload["converged"],
        runtime_seconds=payload["runtime_seconds"],
    )


def write_gold_csv(gold: GoldStandard, path: PathLike) -> None:
    """Write a gold standard to CSV."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["domain", gold.domain])
        writer.writerow(["object", "attribute", "value"])
        for item, value in sorted(gold.values.items()):
            writer.writerow([item.object_id, item.attribute, _encode_value(value)])


def read_gold_csv(path: PathLike) -> GoldStandard:
    """Load a gold standard written by :func:`write_gold_csv`."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if len(header) < 2 or header[0] != "domain":
            raise ValueParseError(f"{path}: not a gold CSV (bad header)")
        domain = header[1]
        next(reader, None)  # column header
        values = {}
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise ValueParseError(
                    f"{path}, line {reader.line_num}: gold row has "
                    f"{len(row)} fields, expected 3"
                )
            values[DataItem(row[0], row[1])] = _decode_value(row[2])
    return GoldStandard(domain=domain, values=values)
