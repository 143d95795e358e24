"""The repro.cli command-line interface."""

import http.client
import json
import signal
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.io import ClaimsDayReader, write_claims_csv, write_gold_csv
from repro.serving import TruthService, TruthStore

from tests.helpers import build_dataset, build_gold, writer_threads

pytestmark = pytest.mark.usefixtures("hang_guard")


#: A store as the earlier ``indent=2`` encoder wrote it.
INDENTED_STORE = """{
  "version": 3,
  "day": "2011-07-03",
  "methods": [
    "Vote",
    "AccuSim"
  ],
  "truths": [
    {
      "object": "o1",
      "attribute": "price",
      "values": {
        "Vote": "f:10.0",
        "AccuSim": "f:10.5"
      }
    },
    {
      "object": "o3",
      "attribute": "gate",
      "values": {
        "Vote": "s:A1",
        "AccuSim": "s:A1"
      }
    }
  ],
  "trust": {
    "Vote": {
      "s1": 0.9,
      "s2": 0.4
    },
    "AccuSim": {
      "s1": 0.8,
      "s2": 0.3
    }
  }
}
"""


@pytest.fixture()
def claims_csv(tmp_path):
    ds = build_dataset({
        ("s1", "o1", "price"): 10.0,
        ("s2", "o1", "price"): 10.0,
        ("s3", "o1", "price"): 77.0,
    })
    path = tmp_path / "claims.csv"
    write_claims_csv(ds, path)
    return path


class TestMethodsCommand:
    def test_lists_all_sixteen(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 16
        assert "AccuCopy" in out


class TestFuseCommand:
    def test_fuse_prints_selection(self, claims_csv, capsys):
        assert main(["fuse", str(claims_csv), "--method", "Vote"]) == 0
        out = capsys.readouterr().out
        assert "o1" in out and "10.0" in out

    def test_fuse_writes_json(self, claims_csv, tmp_path, capsys):
        output = tmp_path / "result.json"
        assert main([
            "fuse", str(claims_csv), "--method", "AccuPr", "-o", str(output)
        ]) == 0
        payload = json.loads(output.read_text())
        assert payload["method"] == "AccuPr"
        assert payload["selected"]

    def test_fuse_scores_against_gold(self, claims_csv, tmp_path, capsys):
        gold_path = tmp_path / "gold.csv"
        write_gold_csv(build_gold({("o1", "price"): 10.0}), gold_path)
        assert main([
            "fuse", str(claims_csv), "--method", "Vote", "--gold", str(gold_path)
        ]) == 0
        out = capsys.readouterr().out
        assert "precision=1.0000" in out


class TestFuseSolverFlags:
    def test_fuse_reports_a_malformed_csv(self, claims_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,claims,file\n")
        assert main(["fuse", str(bad)]) == 2
        assert "error: " in capsys.readouterr().err
        badrow = tmp_path / "badrow.csv"
        badrow.write_text(claims_csv.read_text() + "s1,o2\n")
        assert main(["fuse", str(badrow)]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "claim row has 2 fields, expected 5" in err

    @pytest.mark.parametrize("granularity", ["nan", "inf", "-1.0", "0"])
    def test_fuse_rejects_a_granularity_that_is_not_a_positive_step(
        self, claims_csv, tmp_path, capsys, granularity
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            claims_csv.read_text() + f"s4,o1,price,f:10.0,{granularity}\n"
        )
        assert main(["fuse", str(bad), "--method", "AccuFormat"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.csv, line " in err
        assert f"bad granularity {granularity!r}" in err

    def test_fuse_reports_a_missing_claims_file(self, tmp_path, capsys):
        assert main(["fuse", str(tmp_path / "missing.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.csv" in err

    def test_fuse_reports_a_missing_gold_file_before_solving(
        self, claims_csv, tmp_path, capsys
    ):
        assert main([
            "fuse", str(claims_csv), "--method", "Vote",
            "--gold", str(tmp_path / "nope.csv"),
        ]) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and "nope.csv" in captured.err
        assert "rounds" not in captured.err  # no method solved
        assert captured.out == ""

    def test_fuse_reports_a_malformed_gold_file_before_solving(
        self, claims_csv, tmp_path, capsys
    ):
        bad = tmp_path / "gold.csv"
        for text, reason in [
            ("object,attribute,value\no1,price,f:10.0\n", "not a gold CSV"),
            ("", "not a gold CSV"),
            ("domain,x\nobject,attribute,value\no1,price\n",
             "line 3: gold row has 2 fields, expected 3"),
        ]:
            bad.write_text(text)
            assert main([
                "fuse", str(claims_csv), "--method", "Vote", "--gold", str(bad),
            ]) == 2
            captured = capsys.readouterr()
            assert "error: " in captured.err and reason in captured.err
            assert "rounds" not in captured.err  # no method solved
            assert captured.out == ""

    def test_fuse_rejects_an_unwritable_output_before_solving(
        self, claims_csv, tmp_path, capsys
    ):
        missing = tmp_path / "missing_dir" / "out.json"
        assert main([
            "fuse", str(claims_csv), "--method", "Vote", "-o", str(missing),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {missing}: ")
        assert "does not exist" in captured.err
        assert "rounds" not in captured.err  # no method solved
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["fuse", "stream", "serve"])
    def test_max_rounds_below_one_is_rejected_when_parsed(
        self, command, claims_csv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(claims_csv), "--max-rounds", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --max-rounds: must be at least 1, got 0" in err

    @pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["fuse", "stream", "serve"])
    def test_tolerance_outside_zero_to_inf_is_rejected_when_parsed(
        self, command, tolerance, claims_csv, tmp_path, capsys
    ):
        # A non-positive or NaN threshold never converges (every solve runs
        # to the round cap); an infinite one stops after the first round.
        source = claims_csv.parent if command == "stream" else claims_csv
        store = tmp_path / "store.json"
        with pytest.raises(SystemExit) as excinfo:
            main([
                command, str(source), f"--tolerance={tolerance}",
                *(["--store", str(store)] if command == "serve" else []),
            ])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert (
            "error: argument --tolerance: must be a finite number > 0, "
            f"got {tolerance}" in captured.err
        )
        assert captured.out == ""  # no method solved
        assert not store.exists()

    def test_negative_poll_seconds_is_rejected_when_parsed(
        self, claims_csv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "stream", str(claims_csv.parent), "--follow",
                "--poll-seconds", "-1", "--max-polls", "1",
            ])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "error: argument --poll-seconds: must be a finite" in captured.err
        assert captured.out == ""  # no day streamed

    def test_negative_listen_for_is_rejected_when_parsed(
        self, claims_csv, tmp_path, capsys
    ):
        store = tmp_path / "store.json"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve", str(claims_csv), "--store", str(store),
                "--listen", "127.0.0.1:0", "--listen-for", "-1",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --listen-for: must be a finite" in err
        assert not store.exists()  # nothing solved or saved

    def test_max_rounds_caps_iteration(self, claims_csv, tmp_path):
        output = tmp_path / "result.json"
        assert main([
            "fuse", str(claims_csv), "--method", "AccuPr",
            "--max-rounds", "1", "-o", str(output),
        ]) == 0
        payload = json.loads(output.read_text())
        assert payload["rounds"] == 1
        assert payload["converged"] is False

    def test_tolerance_is_wired_through(self, claims_csv, tmp_path):
        strict = tmp_path / "strict.json"
        loose = tmp_path / "loose.json"
        for path, tolerance in ((strict, "1e-12"), (loose, "0.5")):
            assert main([
                "fuse", str(claims_csv), "--method", "AccuPr",
                "--tolerance", tolerance, "-o", str(path),
            ]) == 0
        assert (
            json.loads(loose.read_text())["rounds"]
            <= json.loads(strict.read_text())["rounds"]
        )


class TestStreamCommand:
    @pytest.fixture()
    def stream_dir(self, tmp_path):
        directory = tmp_path / "days"
        directory.mkdir()
        for day, third in (("d1", 77.0), ("d2", 10.0)):
            ds = build_dataset({
                ("s1", "o1", "price"): 10.0,
                ("s2", "o1", "price"): 10.0,
                ("s3", "o1", "price"): third,
            }, day=day)
            write_claims_csv(ds, directory / f"{day}.csv")
        return directory

    def test_streams_days_in_order(self, stream_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main([
            "stream", str(stream_dir), "--method", "Vote",
            "--output-dir", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "d1 Vote:" in out and "d2 Vote:" in out
        payload = json.loads((out_dir / "d2.Vote.json").read_text())
        assert payload["method"] == "Vote"
        assert payload["trust"]

    def test_multiple_methods_and_cold_mode(self, stream_dir, capsys):
        assert main([
            "stream", str(stream_dir), "--method", "Vote",
            "--method", "AccuPr", "--cold", "--max-rounds", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "AccuPr" in out and "Vote" in out

    def test_output_dir_that_is_a_file_is_rejected(
        self, stream_dir, tmp_path, capsys
    ):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main([
            "stream", str(stream_dir), "--method", "Vote",
            "--output-dir", str(taken),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: cannot create output directory {taken}: "
        )
        assert captured.out == ""  # no day streamed

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["stream", str(empty)]) == 1

    def test_missing_directory_fails(self, tmp_path):
        assert main(["stream", str(tmp_path / "nope")]) == 2


class TestServeAndQuery:
    @pytest.fixture()
    def richer_csv(self, tmp_path):
        ds = build_dataset({
            ("s1", "o1", "price"): 10.0,
            ("s2", "o1", "price"): 10.0,
            ("s3", "o1", "price"): 77.0,
            ("s1", "o2", "price"): 5.0,
            ("s2", "o2", "price"): 5.0,
            ("s1", "o3", "gate"): "A1",
            ("s3", "o3", "gate"): "A1",
        })
        path = tmp_path / "claims.csv"
        write_claims_csv(ds, path)
        return path

    def test_serve_then_query_without_resolving(self, richer_csv, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert main([
            "serve", str(richer_csv), "--method", "Vote",
            "--method", "AccuSim", "--store", str(store),
        ]) == 0
        assert store.exists()
        assert main([
            "query", str(store), "--object", "o1", "--attribute", "price",
        ]) == 0
        out = capsys.readouterr().out
        assert "10.0" in out and "Vote" in out
        assert main([
            "query", str(store), "--object", "o1", "--attribute", "price",
            "--method", "AccuSim",
        ]) == 0
        assert main([
            "query", str(store), "--object", "o3", "--attribute", "gate",
            "--ensemble",
        ]) == 0
        assert "Ensemble" in capsys.readouterr().out

    def test_query_trust_and_stats(self, richer_csv, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert main(["serve", str(richer_csv), "--store", str(store)]) == 0
        assert main(["query", str(store), "--trust", "s1"]) == 0
        assert "s1" in capsys.readouterr().out
        assert main(["query", str(store)]) == 0
        out = capsys.readouterr().out
        assert "version 1" in out and "AccuSim" in out

    def test_query_misses_exit_nonzero(self, richer_csv, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert main(["serve", str(richer_csv), "--store", str(store)]) == 0
        assert main([
            "query", str(store), "--object", "o9", "--attribute", "price",
        ]) == 1
        assert main(["query", str(store), "--trust", "ghost"]) == 1

    def test_query_rejects_partial_lookup_args(self, richer_csv, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert main(["serve", str(richer_csv), "--store", str(store)]) == 0
        assert main(["query", str(store), "--object", "o1"]) == 2
        assert main(["query", str(store), "--attribute", "price"]) == 2
        assert main(["query", str(store), "--ensemble"]) == 2

    def test_query_reports_unreadable_store_cleanly(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["query", str(bad)]) == 2
        assert "cannot read store" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"version": 1, "methods": ["Vote"], "trust": {}, "truths": '
            '[{"object": "o1", "attribute": "price", "values": ["f:1.0"]}]}',
            '{"version": 1, "methods": ["Vote"], "trust": {}, "truths": '
            '[{"object": "o1", "attribute": "price", "values": {"Vote": "zzz"}}]}',
        ],
        ids=["top-level-list", "values-list", "untagged-value"],
    )
    def test_malformed_store_payload_is_reported_cleanly(
        self, payload, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert main(["query", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"cannot read store {bad}: ")
        assert main(["serve", str(bad), "--listen", "127.0.0.1:0"]) == 2
        assert capsys.readouterr().err.startswith(f"cannot read store {bad}: ")

    @pytest.mark.parametrize(
        "read",
        [["--trust", "s1"], ["--object", "o1", "--attribute", "price"]],
        ids=["trust", "lookup"],
    )
    def test_query_distinguishes_unknown_method(
        self, read, richer_csv, tmp_path, capsys
    ):
        store = tmp_path / "store.json"
        assert main(["serve", str(richer_csv), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["query", str(store), *read, "--method", "Nope"]) == 1
        err = capsys.readouterr().err
        assert "method 'Nope' is not published" in err
        assert "no truth for" not in err

    def test_serve_directory_versions_per_day(self, tmp_path, capsys):
        days = tmp_path / "days"
        days.mkdir()
        for index, value in enumerate((10.0, 11.0)):
            ds = build_dataset(
                {
                    ("s1", "o1", "price"): value,
                    ("s2", "o1", "price"): value,
                },
                day=f"d{index}",
            )
            write_claims_csv(ds, days / f"0{index}.csv")
        store = tmp_path / "store.json"
        assert main(["serve", str(days), "--store", str(store)]) == 0
        payload = json.loads(store.read_text())
        assert payload["version"] == 2
        assert payload["day"] == "d1"
        assert main([
            "query", str(store), "--object", "o1", "--attribute", "price",
        ]) == 0
        assert "11.0" in capsys.readouterr().out

    def test_serve_directory_round_trip(self, tmp_path, capsys):
        """`serve days/` publishes one version per day; `query` reads it."""
        days = tmp_path / "days"
        days.mkdir()
        for index, (first, third) in enumerate(((10.0, 77.0), (10.0, 10.0))):
            ds = build_dataset(
                {
                    ("s1", "o1", "price"): first,
                    ("s2", "o1", "price"): first,
                    ("s3", "o1", "price"): third,
                    ("s1", "o2", "price"): 5.0,
                    ("s2", "o2", "price"): 5.0,
                    ("s1", "o3", "gate"): "A1",
                    ("s3", "o3", "gate"): "A1",
                },
                day=f"d{index}",
            )
            write_claims_csv(ds, days / f"0{index}.csv")
        store = tmp_path / "store.json"
        assert main([
            "serve", str(days), "--method", "Vote", "--method", "AccuSim",
            "--store", str(store),
        ]) == 0
        payload = json.loads(store.read_text())
        assert payload["version"] == 2 and payload["day"] == "d1"
        assert payload["methods"] == ["Vote", "AccuSim"]
        assert main([
            "query", str(store), "--object", "o1", "--attribute", "price",
        ]) == 0
        assert "10.0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "days", "--shards", "2"],
            ["stream", "days", "--approximate"],
            ["serve", "days", "--shards", "2"],
            ["serve", "days", "--approximate"],
            ["serve", "days", "--stream"],
            ["fuse", "claims.csv", "--workers", "2"],
            ["stream", "days", "--workers", "2"],
            ["serve", "days", "--workers", "2"],
        ],
        ids=["stream-shards", "stream-approximate", "serve-shards",
             "serve-approximate", "serve-stream", "fuse-workers",
             "stream-workers", "serve-workers"],
    )
    def test_removed_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_file_equals_serve_directory(
        self, richer_csv, tmp_path, capsys
    ):
        """A claims CSV is served as a one-day directory, byte for byte."""
        days = tmp_path / "days"
        days.mkdir()
        (days / "00.csv").write_bytes(richer_csv.read_bytes())
        from_file, from_dir = tmp_path / "file.json", tmp_path / "dir.json"
        methods = ["--method", "Vote", "--method", "AccuSim"]
        assert main([
            "serve", str(richer_csv), "--store", str(from_file), *methods,
        ]) == 0
        assert main([
            "serve", str(days), "--store", str(from_dir), *methods,
        ]) == 0
        assert from_file.read_bytes() == from_dir.read_bytes()

    def test_serve_malformed_file_writes_no_store(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,claims,file\n")
        store = tmp_path / "s.json"
        assert main(["serve", str(bad), "--store", str(store)]) == 1
        err = capsys.readouterr().err
        assert "bad header" in err
        assert f"no claims day in {bad} could be served" in err
        assert not store.exists()

    def test_serve_directory_of_skipped_days_fails(
        self, richer_csv, tmp_path, capsys
    ):
        days = tmp_path / "days"
        days.mkdir()
        (days / "00.csv").write_text("not,a,claims,file\n")
        (days / "01.csv").write_text(richer_csv.read_text() + "s1,o9\n")
        store = tmp_path / "s.json"
        assert main(["serve", str(days), "--store", str(store)]) == 1
        err = capsys.readouterr().err
        assert "skipping 00.csv" in err and "skipping 01.csv" in err
        assert f"no claims day in {days} could be served" in err
        assert not store.exists()
        assert main(["stream", str(days)]) == 1
        assert (
            f"no claims day in {days} could be served"
            in capsys.readouterr().err
        )

    def test_serve_rejects_an_unwritable_store_before_solving(
        self, richer_csv, tmp_path, capsys
    ):
        missing = tmp_path / "missing_dir" / "store.json"
        assert main(["serve", str(richer_csv), "--store", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"cannot write store {missing}: ")
        assert "does not exist" in err
        assert main(["serve", str(richer_csv), "--store", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is a directory" in err
        assert not writer_threads()

    def test_failed_store_write_exits_nonzero_with_the_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def failing_save(self, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(TruthStore, "save", failing_save)
        days = self._write_days(tmp_path / "days", 3)
        store = tmp_path / "store.json"
        assert main(["serve", str(days), "--store", str(store)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot write store {store}: OSError: " in err
        assert "No space left on device" in err
        assert not store.exists()
        assert not writer_threads()

    def _write_days(self, days, count):
        days.mkdir()
        for index in range(count):
            ds = build_dataset(
                {
                    ("s1", "o1", "price"): 10.0 + index,
                    ("s2", "o1", "price"): 10.0 + index,
                    ("s3", "o1", "price"): 77.0,
                    ("s1", "o2", "price"): 5.0,
                    ("s3", "o2", "price"): float(index),
                    ("s1", "o3", "gate"): "A1",
                    ("s3", "o3", "gate"): f"B{index % 2}",
                },
                day=f"d{index:02d}",
            )
            write_claims_csv(ds, days / f"{index:02d}.csv")
        return days

    def test_store_version_never_decreases_over_a_day_stream(
        self, tmp_path, monkeypatch
    ):
        days = self._write_days(tmp_path / "days", 8)
        store = tmp_path / "store.json"
        written = []
        save = TruthStore.save

        def recording_save(self, path):
            save(self, path)
            written.append(json.loads(store.read_text())["version"])

        monkeypatch.setattr(TruthStore, "save", recording_save)
        assert main([
            "serve", str(days), "--method", "Vote", "--store", str(store),
        ]) == 0
        assert written and written == sorted(written)
        assert written[-1] == 8
        assert not writer_threads()

    def test_store_file_equals_the_final_snapshot_on_return(
        self, tmp_path, capsys
    ):
        days = self._write_days(tmp_path / "days", 5)
        store = tmp_path / "store.json"
        methods = ["Vote", "AccuSim"]
        assert main([
            "serve", str(days), "--method", "Vote", "--method", "AccuSim",
            "--store", str(store),
        ]) == 0
        assert not writer_threads()
        err = capsys.readouterr().err
        assert "d04: published version 5" in err
        assert f"saved version 5 to {store}" in err
        service = TruthService(methods)
        reader = ClaimsDayReader()
        for path in sorted(days.glob("*.csv")):
            service.store.publish_step(
                reader.push(reader.read(path), service.runner)
            )
        assert TruthStore.load(store).snapshot() == service.store.snapshot()

    def test_indented_store_still_loads_and_answers_queries(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store.json"
        store.write_text(INDENTED_STORE, encoding="utf-8")
        loaded = TruthStore.load(store)
        assert loaded.version == 3 and loaded.methods == ("Vote", "AccuSim")
        assert loaded.lookup("o1", "price", method="AccuSim").value == 10.5
        assert loaded.trust("s2") == 0.4
        assert main([
            "query", str(store), "--object", "o3", "--attribute", "gate",
            "--ensemble",
        ]) == 0
        assert "A1\t(Ensemble, version 3, day 2011-07-03)" in (
            capsys.readouterr().out
        )

    def test_serve_rejects_missing_source(self, tmp_path):
        assert main([
            "serve", str(tmp_path / "nope.csv"), "--store",
            str(tmp_path / "s.json"),
        ]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([
            "serve", str(empty), "--store", str(tmp_path / "s.json"),
        ]) == 1


class TestServeListen:
    """`serve --listen`: the CLI front door to the asyncio server."""

    def _free_port(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return port

    def _get(self, port, path, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", path, headers=headers or {})
            response = conn.getresponse()
            body = response.read()
            return response.status, json.loads(body) if body else None
        finally:
            conn.close()

    def _wait_for_version(self, port, version, headers=None, timeout=10):
        deadline = time.time() + timeout
        while time.time() < deadline:
            try:
                status, body = self._get(port, "/health", headers=headers)
                if status == 200 and body["version"] >= version:
                    return body
            except OSError:
                pass
            time.sleep(0.02)
        raise AssertionError(f"server never reached version {version}")

    def _serve_in_thread(self, argv):
        result = {}

        def run():
            result["code"] = main(argv)

        thread = threading.Thread(target=run)
        thread.start()
        return thread, result

    def test_listen_serves_days_live_then_exits(self, tmp_path):
        days = tmp_path / "days"
        days.mkdir()
        for index, value in enumerate((10.0, 11.0)):
            ds = build_dataset(
                {
                    ("s1", "o1", "price"): value,
                    ("s2", "o1", "price"): value,
                },
                day=f"d{index}",
            )
            write_claims_csv(ds, days / f"0{index}.csv")
        port = self._free_port()
        store = tmp_path / "store.json"
        thread, result = self._serve_in_thread([
            "serve", str(days), "--method", "Vote",
            "--store", str(store),
            "--listen", f"127.0.0.1:{port}",
            "--listen-for", "1.5", "--no-request-log",
        ])
        try:
            health = self._wait_for_version(port, 2)
            assert health["day"] == "d1"
            status, body = self._get(
                port, "/lookup?object=o1&attribute=price"
            )
            assert status == 200
            assert body["value"] == 11.0 and body["version"] == 2
        finally:
            thread.join(15)
        assert result["code"] == 0
        assert json.loads(store.read_text())["version"] == 2

    def test_interrupt_while_saving_the_last_day_exits_cleanly(
        self, tmp_path, monkeypatch
    ):
        """SIGINT during the last day's save stops a live server cleanly.

        Day 2 is published only once version 1 is on disk, and the save of
        version 2 sends SIGINT to the main thread itself, so the interrupt
        lands while that save is in flight whatever the thread timing.
        """
        days = tmp_path / "days"
        days.mkdir()
        for index, value in enumerate((10.0, 11.0)):
            ds = build_dataset(
                {("s1", "o1", "price"): value, ("s2", "o1", "price"): value},
                day=f"d{index}",
            )
            write_claims_csv(ds, days / f"0{index}.csv")
        store = tmp_path / "store.json"
        in_flight = []
        saved_first = threading.Event()
        save, publish_step = TruthStore.save, TruthStore.publish_step

        def interrupted_save(self, path):
            version = self.version
            if version == 2:
                # Interrupted mid-save: the file holds the complete version 1.
                in_flight.append(json.loads(store.read_text())["version"])
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            save(self, path)
            if version == 1:
                saved_first.set()

        def paced_publish_step(self, step):
            if self.version == 1:
                assert saved_first.wait(10), "version 1 was never saved"
            return publish_step(self, step)

        monkeypatch.setattr(TruthStore, "save", interrupted_save)
        monkeypatch.setattr(TruthStore, "publish_step", paced_publish_step)
        port = self._free_port()
        assert main([
            "serve", str(days), "--method", "Vote", "--store", str(store),
            "--listen", f"127.0.0.1:{port}",
            "--listen-for", "30", "--no-request-log",
        ]) == 0
        assert in_flight == [1]
        # The save in flight was finished, not torn or abandoned.
        assert TruthStore.load(store).version == 2
        assert not writer_threads()
        with pytest.raises(OSError):
            self._get(port, "/health")  # the listener was stopped

    def test_listen_serves_prebuilt_store_json(self, claims_csv, tmp_path):
        store = tmp_path / "store.json"
        assert main([
            "serve", str(claims_csv), "--method", "Vote",
            "--store", str(store),
        ]) == 0
        port = self._free_port()
        thread, result = self._serve_in_thread([
            "serve", str(store),
            "--listen", f"127.0.0.1:{port}",
            "--listen-for", "1.5", "--no-request-log",
            "--auth-token", "sekret",
        ])
        try:
            headers = {"Authorization": "Bearer sekret"}
            self._wait_for_version(port, 1, headers=headers)
            status, _ = self._get(port, "/lookup?object=o1&attribute=price")
            assert status == 401  # token required off the /health path
            status, body = self._get(
                port, "/lookup?object=o1&attribute=price", headers=headers
            )
            assert status == 200 and body["value"] == 10.0
        finally:
            thread.join(15)
        assert result["code"] == 0

    def test_store_json_without_listen_is_an_error(self, claims_csv, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert main([
            "serve", str(claims_csv), "--store", str(store),
        ]) == 0
        assert main(["serve", str(store)]) == 2
        assert "--listen" in capsys.readouterr().err

    def test_listen_rejects_malformed_addresses(self, claims_csv, tmp_path, capsys):
        store = tmp_path / "s.json"
        for bad in ("notaport", "127.0.0.1:notaport", "127.0.0.1:99999"):
            assert main([
                "serve", str(claims_csv), "--store", str(store),
                "--listen", bad,
            ]) == 2
            assert "--listen expects" in capsys.readouterr().err


class TestExportDemo:
    def test_round_trip_through_cli(self, tmp_path, capsys):
        claims = tmp_path / "demo.csv"
        gold = tmp_path / "demo_gold.csv"
        assert main(["export-demo", "flight", str(claims), "--gold", str(gold)]) == 0
        assert claims.exists() and gold.exists()
        assert main([
            "fuse", str(claims), "--method", "Vote", "--gold", str(gold)
        ]) == 0
        out = capsys.readouterr().out
        assert "precision=" in out
