"""Serving a day directory through :class:`repro.io.ClaimsDayReader`.

After its first file the reader diffs each daily CSV against the last
consumed one and hands the runner a :class:`~repro.core.delta.ClaimDelta`.
Every store version it publishes must equal the one the snapshot path
(``read_claims_csv`` + ``ingest`` on every day) publishes, exactly: truths,
trust (``==``), day and version.
"""

from __future__ import annotations

import json
import shutil

import pytest

import repro.io
from repro.cli import main
from repro.core.dataset import Dataset
from repro.datagen.streams import perturbed_claim_stream
from repro.errors import FusionError, SchemaError, ValueParseError
from repro.fusion.base import FusionProblem
from repro.fusion.registry import make_method
from repro.io import ClaimsDayReader, read_claims_csv, write_claims_csv
from repro.serving import StoreWriter, TruthService, TruthStore
from repro.streaming import StreamRunner

from tests.helpers import build_dataset

METHODS = ("Vote", "AccuPr", "TruthFinder", "AccuCopy")


# ----------------------------------------------------------------- helpers
def _method_args(methods):
    return [arg for name in methods for arg in ("--method", name)]


@pytest.fixture()
def snapshot_reads(monkeypatch):
    """Counts the files that take the snapshot path (``read_claims_csv``)."""
    calls = []
    original = repro.io.read_claims_csv

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(repro.io, "read_claims_csv", counting)
    return calls


@pytest.fixture()
def published(monkeypatch):
    """Every snapshot ``cli serve`` publishes, in order.

    Captured at publish, not at save: the background store writer saves
    only the newest of the versions published while it was busy.
    """
    seen = []
    original = StoreWriter.__init__

    def init(self, store, path):
        store.add_listener(seen.append)
        original(self, store, path)

    monkeypatch.setattr(StoreWriter, "__init__", init)
    return seen


def _serve(days, tmp_path, methods, *extra):
    return main([
        "serve", str(days), "--store", str(tmp_path / "store.json"),
        *_method_args(methods), *extra,
    ])


def _reference(days, methods, monotonic=False):
    """The snapshot path: every readable file parsed whole and ingested."""
    store = TruthStore(monotonic_days=monotonic)
    seen = []
    store.add_listener(seen.append)
    service = TruthService(list(methods), store=store)
    for path in sorted(days.glob("*.csv")):
        try:
            dataset = read_claims_csv(path)
        except ValueParseError:
            continue
        try:
            service.ingest(dataset)
        except FusionError:  # a stale day, or one without claims
            continue
    return seen


def _assert_same_versions(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.version, a.day, a.methods) == (b.version, b.day, b.methods)
        assert a.truths == b.truths, a.version
        assert a.trust == b.trust, a.version


def _write_days(directory, datasets):
    directory.mkdir(exist_ok=True)
    for index, dataset in enumerate(datasets):
        write_claims_csv(dataset, directory / f"{index:02d}.csv")
    return directory


def _edit(path, old, new, count=1):
    text = path.read_bytes()
    assert text.count(old) >= count, (old, text[:400])
    path.write_bytes(text.replace(old, new, count))


# ------------------------------------------------ the perturbed tiny stream
@pytest.fixture(scope="module")
def stream_days(stock_snapshot, tmp_path_factory):
    stream = perturbed_claim_stream(stock_snapshot, 5, churn=0.01, seed=3)
    return _write_days(
        tmp_path_factory.mktemp("stream") / "days",
        [stock_snapshot, *stream.snapshots],
    )


def test_serve_dir_matches_snapshot_ingest(
    stream_days, tmp_path, published, snapshot_reads
):
    assert _serve(stream_days, tmp_path, METHODS) == 0
    assert len(snapshot_reads) == 1  # every later day was a delta
    _assert_same_versions(published, _reference(stream_days, METHODS))
    assert [snap.version for snap in published] == list(range(1, 7))


def test_stream_dir_matches_snapshot_pushes(stream_days, tmp_path, snapshot_reads):
    out = tmp_path / "out"
    assert main([
        "stream", str(stream_days), *_method_args(METHODS),
        "--output-dir", str(out),
    ]) == 0
    assert len(snapshot_reads) == 1
    runner = StreamRunner(list(METHODS))
    for path in sorted(stream_days.glob("*.csv")):
        step = runner.push(read_claims_csv(path))
        for name, result in step.results.items():
            payload = json.loads((out / f"{step.day}.{name}.json").read_text())
            assert payload["selected"] == [
                {"object": item.object_id, "attribute": item.attribute,
                 "value": repro.io._encode_value(value)}
                for item, value in sorted(result.selected.items())
            ]
            assert payload["trust"] == result.trust
            assert payload["rounds"] == result.rounds


def test_reader_api_snapshot_then_deltas(stream_days):
    paths = sorted(stream_days.glob("*.csv"))
    reader = ClaimsDayReader()
    first = reader.read(paths[0])
    assert first.dataset is not None and first.delta is None
    runner = StreamRunner(["Vote"])
    reader.push(first, runner)
    assert first.dataset is None  # released to the runner
    second = reader.read(paths[1])
    assert second.dataset is None
    delta = second.delta
    assert delta.day == read_claims_csv(paths[1]).day
    assert delta.added and delta.retracted
    # Reading again without pushing diffs against the same base.
    assert reader.read(paths[1]).delta == delta


def _without_objects(dataset, objects, day):
    out = Dataset(domain=dataset.domain, day=day, attributes=dataset.attributes)
    for meta in dataset.sources.values():
        out.add_source(meta)
    for item, source_id, claim in dataset.iter_claims():
        if item.object_id not in objects:
            out.add_claim(source_id, item, claim)
    return out.freeze()


def test_many_new_items_intern_in_snapshot_order(
    stock_snapshot, tmp_path, published, snapshot_reads
):
    held_back = set(sorted(stock_snapshot.objects)[::4])
    days = _write_days(tmp_path / "days", [
        _without_objects(stock_snapshot, held_back, "d0"),
        _without_objects(stock_snapshot, set(), "d1"),  # the items arrive
        _without_objects(stock_snapshot, held_back, "d2"),
        _without_objects(stock_snapshot, set(), "d3"),  # and come back
    ])
    assert _serve(days, tmp_path, METHODS) == 0
    assert len(snapshot_reads) == 1
    _assert_same_versions(published, _reference(days, METHODS))


# ------------------------------------------------------------ crafted days
BASE = {
    ("s1", "o1", "price"): 10.0,
    ("s2", "o1", "price"): 10.0,
    ("s3", "o1", "price"): 11.0,
    ("s1", "o2", "price"): 5.0,
    ("s2", "o2", "price"): 5.5,
    ("s1", "o3", "gate"): "A1",
    ("s3", "o3", "gate"): "A1",
    ("s2", "o3", "gate"): "B2",
    ("s1", "o4", "volume"): 1e6,
    ("s2", "o4", "volume"): 1.2e6,
}
CRAFTED = ("Vote", "AccuPr")


def _changed(base=BASE, drop=(), **updates):
    claims = {k: v for k, v in base.items() if k not in drop}
    for key, value in updates.items():
        source_id, object_id, attribute = key.split("__")
        claims[(source_id, object_id, attribute)] = value
    return claims


def _check(days, tmp_path, published, snapshot_reads, full_days, **kwargs):
    assert _serve(days, tmp_path, CRAFTED) == 0
    assert len(snapshot_reads) == full_days
    _assert_same_versions(published, _reference(days, CRAFTED, **kwargs))


@pytest.mark.parametrize(
    "day_two",
    [
        _changed(s3__o1__price=10.0),  # a value change
        _changed(drop=[("s2", "o2", "price")]),  # a retraction
        _changed(drop=[("s1", "o2", "price"), ("s2", "o2", "price")]),
        _changed(s1__o9__price=3.0, s2__o9__price=3.0, s3__o9__gate="C"),
        _changed(s2__o3__gate="A1", s3__o1__price=12.5,
                 drop=[("s1", "o4", "volume")]),
    ],
    ids=["value-change", "retraction", "item-vanishes", "new-item", "mixed"],
)
def test_crafted_deltas(tmp_path, published, snapshot_reads, day_two):
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(day_two, day="d1"),
        build_dataset(BASE, day="d2"),
    ])
    _check(days, tmp_path, published, snapshot_reads, full_days=1)


@pytest.mark.parametrize(
    "old, new",
    [
        # a #source row appended, its source with no claims yet
        (b"source,object,", b"#source,s9,,third party,0\r\nsource,object,"),
        # an attribute's tolerance factor
        (b"#attribute,price,numeric,0.01,", b"#attribute,price,numeric,0.2,"),
    ],
    ids=["silent-source", "tolerance"],
)
def test_header_change_takes_the_snapshot_path(
    tmp_path, published, snapshot_reads, old, new
):
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(_changed(s3__o1__price=10.0), day="d1"),
        build_dataset(_changed(s3__o1__price=10.4), day="d2"),
    ])
    for name in ("01.csv", "02.csv"):
        _edit(days / name, old, new)
    # d2 diffs against d1, whose header it shares.
    _check(days, tmp_path, published, snapshot_reads, full_days=2)


def test_new_source_with_claims_takes_the_snapshot_path(
    tmp_path, published, snapshot_reads
):
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(_changed(s4__o1__price=10.0), day="d1"),
        build_dataset(_changed(s4__o1__price=11.0), day="d2"),
    ])
    _check(days, tmp_path, published, snapshot_reads, full_days=2)


@pytest.mark.parametrize(
    "edits",
    [
        # the attribute table
        [(b"#attribute,gate,", b"#attribute,gates,", 1), (b",gate,", b",gates,", 3)],
        # a claim by an undeclared source
        [(b"s3,o1,price,", b"s9,o1,price,", 1)],
    ],
    ids=["attribute-table", "undeclared-source"],
)
def test_schema_errors_match_the_snapshot_path(tmp_path, edits):
    days = _write_days(tmp_path / "days", [build_dataset(BASE, day="d0")])
    shutil.copy(days / "00.csv", days / "01.csv")
    for old, new, count in edits:
        _edit(days / "01.csv", old, new, count)
    with pytest.raises(SchemaError) as served:
        _serve(days, tmp_path, CRAFTED)
    with pytest.raises(SchemaError) as reference:
        _reference(days, CRAFTED)
    assert str(served.value) == str(reference.value)


@pytest.mark.parametrize(
    "old, new",
    [
        (b"s1,o2,price,", b"\r\ns1,o2,price,"),  # a blank line
        (b"s1,o2,price,", b"#source,s9,,third party,0\r\ns1,o2,price,"),
    ],
    ids=["blank-line", "source-row-among-claims"],
)
def test_unusual_claim_lines_take_the_snapshot_path(
    tmp_path, published, snapshot_reads, old, new
):
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(_changed(s3__o1__price=10.0), day="d1"),
        build_dataset(_changed(s3__o1__price=10.4), day="d2"),
    ])
    _edit(days / "01.csv", old, new)
    # d1 leaves no diff base, so d2 is parsed whole too.
    _check(days, tmp_path, published, snapshot_reads, full_days=3)


def test_quoted_strings_commas_and_unicode_diff(tmp_path, published, snapshot_reads):
    base = _changed(
        s1__o3__gate='gate "A", east',
        s3__o3__gate='gate "A", east',
        s1__ö5__gate="Zürich, T1",
        s2__ö5__gate="Zürich, T1",
        s3__ö5__gate="東京",
    )
    days = _write_days(tmp_path / "days", [
        build_dataset(base, day="d0"),
        build_dataset(_changed(base, s3__ö5__gate="Zürich, T1",
                               s2__o3__gate='gate "A", east'), day="d1"),
        build_dataset(_changed(base, drop=[("s1", "ö5", "gate")]), day="d2"),
    ])
    _check(days, tmp_path, published, snapshot_reads, full_days=1)


def test_field_spanning_lines_takes_the_snapshot_path(
    tmp_path, published, snapshot_reads
):
    multi = _changed(s2__o3__gate="B\n2")
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(multi, day="d1"),
        build_dataset(_changed(multi, s3__o1__price=10.0), day="d2"),
        build_dataset(BASE, day="d3"),
        build_dataset(_changed(s3__o1__price=10.0), day="d4"),
    ])
    # d1 and d2 hold the multi-line record; d3 is parsed whole because d2
    # left no diff base; d4 diffs against d3.
    _check(days, tmp_path, published, snapshot_reads, full_days=4)


def test_non_canonical_quoting_takes_the_snapshot_path(
    tmp_path, published, snapshot_reads
):
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(_changed(s3__o1__price=10.0), day="d1"),
    ])
    _edit(days / "01.csv", b"s1,o1,price,", b'"s1",o1,price,')
    _check(days, tmp_path, published, snapshot_reads, full_days=2)


def test_empty_granularity_changes_diff(tmp_path, published, snapshot_reads):
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(BASE, day="d1", granularities={("s1", "o4", "volume"): 1e5}),
        build_dataset(BASE, day="d2"),
    ])
    assert b"f:1000000.0,100000.0" in (days / "01.csv").read_bytes()
    _check(days, tmp_path, published, snapshot_reads, full_days=1)


def test_crlf_and_lf_days_diff(tmp_path, published, snapshot_reads):
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(_changed(s3__o1__price=10.0), day="d1"),
        build_dataset(BASE, day="d2"),
    ])
    assert b"\r\n" in (days / "00.csv").read_bytes()
    _edit(days / "01.csv", b"\r\n", b"\n", count=-1)
    _check(days, tmp_path, published, snapshot_reads, full_days=1)


def test_byte_identical_repeat_publishes_an_equal_version(
    tmp_path, published, snapshot_reads
):
    days = _write_days(tmp_path / "days", [build_dataset(BASE, day="d0")])
    shutil.copy(days / "00.csv", days / "01.csv")
    _check(days, tmp_path, published, snapshot_reads, full_days=1)
    assert published[1].truths == published[0].truths


@pytest.mark.parametrize(
    "old, new",
    [
        (b"s2,o2,price,f:5.5,", b"s2,o2,price,f:5.5"),  # 4 fields
        (b"s2,o2,price,f:5.5,", b"s2,o2,price,f:5.5,abc"),  # granularity
        (b"s2,o2,price,f:5.5,", b"s2,o2,price,x:5.5,"),  # untagged value
    ],
    ids=["fields", "granularity", "payload"],
)
def test_malformed_day_mid_stream_is_skipped(
    tmp_path, published, snapshot_reads, capsys, old, new
):
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(_changed(s3__o1__price=10.0), day="d1"),
        build_dataset(_changed(s3__o1__price=12.0), day="d2"),
    ])
    _edit(days / "01.csv", old, new)
    with pytest.raises(ValueParseError, match=r"01\.csv, line \d+: "):
        read_claims_csv(days / "01.csv")
    # d1 goes down the snapshot path (and fails); d2 diffs against d0.
    _check(days, tmp_path, published, snapshot_reads, full_days=2)
    assert [snap.day for snap in published] == ["d0", "d2"]
    assert "warning: skipping 01.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        b"s2,o2,price,f:6.0,\r\n",  # a second value on an unchanged cell
        b"s2,o2,price,f:5.5,\r\n",  # a byte-identical repeated line
        b"s4,o1,price,f:1.0,\r\ns4,o1,price,f:2.0,\r\n",  # twice on a new cell
    ],
    ids=["unchanged-cell", "repeated-line", "new-cell"],
)
def test_duplicate_cell_is_rejected_on_both_paths(
    tmp_path, published, snapshot_reads, extra
):
    base = _changed(s4__o2__price=5.0)
    days = _write_days(tmp_path / "days", [
        build_dataset(base, day="d0"),
        build_dataset(_changed(base, s3__o1__price=12.0), day="d1"),
        build_dataset(_changed(base, s3__o1__price=10.0), day="d2"),
    ])
    with open(days / "01.csv", "ab") as handle:
        handle.write(extra)
    with pytest.raises(ValueParseError, match=r"01\.csv, line \d+: second claim"):
        read_claims_csv(days / "01.csv")
    _check(days, tmp_path, published, snapshot_reads, full_days=2)
    assert [snap.day for snap in published] == ["d0", "d2"]


def test_stale_day_still_becomes_the_diff_base(tmp_path, published):
    """A stale publish is refused after the runner consumed the day."""
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d5"),
        build_dataset(_changed(drop=[("s2", "o2", "price")]), day="d3"),
        build_dataset(_changed(s3__o1__price=10.0), day="d6"),
    ])
    assert _serve(
        days, tmp_path, CRAFTED,
        "--listen", "127.0.0.1:0", "--listen-for", "0", "--no-request-log",
    ) == 0
    want = _reference(days, CRAFTED, monotonic=True)
    _assert_same_versions(published, want)
    assert [snap.day for snap in published] == ["d5", "d6"]


def test_late_arriving_file_diffs_against_the_last_consumed(
    tmp_path, monkeypatch, snapshot_reads
):
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(_changed(s3__o1__price=10.0), day="d2"),
    ])
    late = build_dataset(_changed(s2__o2__price=5.0), day="d1")
    polls = []

    def sleep(_seconds):
        if not polls:
            write_claims_csv(late, days / "00a.csv")
        polls.append(1)

    monkeypatch.setattr("repro.cli.time.sleep", sleep)
    out = tmp_path / "out"
    assert main([
        "stream", str(days), *_method_args(CRAFTED), "--follow",
        "--max-polls", "2", "--poll-seconds", "0", "--output-dir", str(out),
    ]) == 0
    assert len(snapshot_reads) == 1
    runner = StreamRunner(list(CRAFTED))
    for name in ("00.csv", "01.csv", "00a.csv"):
        step = runner.push(read_claims_csv(days / name))
        for method, result in step.results.items():
            payload = json.loads((out / f"{step.day}.{method}.json").read_text())
            assert payload["trust"] == result.trust
            assert {entry["object"] + "/" + entry["attribute"]: entry["value"]
                    for entry in payload["selected"]} == {
                f"{item.object_id}/{item.attribute}":
                    repro.io._encode_value(value)
                for item, value in result.selected.items()
            }


def test_file_rewritten_after_its_snapshot_read_is_not_diffed(tmp_path):
    days = _write_days(tmp_path / "days", [
        build_dataset(BASE, day="d0"),
        build_dataset(_changed(s3__o1__price=10.0), day="d1"),
    ])
    reader = ClaimsDayReader()
    runner = StreamRunner(list(CRAFTED))
    reader.push(reader.read(days / "00.csv"), runner)
    # The runner holds the old d0; a base built from the new file
    # would diff d1 against claims the runner never saw.
    write_claims_csv(
        build_dataset(_changed(s2__o2__price=50.0, s1__o9__price=1.0), day="d0"),
        days / "00.csv",
    )
    day = reader.read(days / "01.csv")
    assert day.delta is None and day.dataset is not None


# ------------------------------------------------------------ an empty day
@pytest.fixture()
def empty_day(flight_snapshot, tmp_path):
    """00 is the flight day, 01 its header alone, 02 its claims relabelled."""
    days = _write_days(tmp_path / "days", [flight_snapshot])
    text = (days / "00.csv").read_bytes()
    label = b",day," + flight_snapshot.day.encode()
    end = text.index(b"\n", text.index(b"\nsource,object,") + 1) + 1
    (days / "01.csv").write_bytes(text[:end].replace(label, label + b"e", 1))
    (days / "02.csv").write_bytes(text.replace(label, label + b"f", 1))
    return days


def test_empty_day_leaves_the_runner_on_the_last_good_day(empty_day):
    paths = sorted(empty_day.glob("*.csv"))
    reader = ClaimsDayReader()
    runner = StreamRunner(list(METHODS), warm_start=False)
    reader.push(reader.read(paths[0]), runner)
    with pytest.raises(FusionError, match="holds no active claims"):
        reader.push(reader.read(paths[1]), runner)
    third = reader.read(paths[2])
    assert third.delta is not None  # diffed against the first day
    step = reader.push(third, runner)
    assert len(runner.days) == 2
    problem = FusionProblem(read_claims_csv(paths[2]))
    for name, result in step.results.items():
        assert result.selected == make_method(name).run(problem).selected, name


def test_cli_skips_or_refuses_an_empty_day(
    empty_day, tmp_path, published, capsys
):
    assert _serve(empty_day, tmp_path, METHODS) == 0
    assert "warning: skipping 01.csv" in capsys.readouterr().err
    want = _reference(empty_day, METHODS)
    _assert_same_versions(published, want)
    assert [snap.version for snap in published] == [1, 2]
    assert TruthStore.load(tmp_path / "store.json").snapshot() == want[-1]
    assert main(["stream", str(empty_day), *_method_args(METHODS)]) == 0
    err = capsys.readouterr().err
    assert "warning: skipping 01.csv" in err and "streamed 2 day(s)" in err
    assert main(["fuse", str(empty_day / "01.csv")]) == 2
    assert "holds no claims" in capsys.readouterr().err
