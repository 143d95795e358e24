"""Command-line interface: fuse a claims CSV with any method.

Usage::

    python -m repro.cli fuse claims.csv --method AccuSim -o result.json
    python -m repro.cli fuse claims.csv --method AccuCopy --gold gold.csv
    python -m repro.cli stream days/ --method AccuSim --output-dir out/
    python -m repro.cli serve claims.csv --store store.json
    python -m repro.cli serve days/ --listen 8080 --store store.json
    python -m repro.cli serve store.json --listen 127.0.0.1:8080
    python -m repro.cli query store.json --object o1 --attribute price
    python -m repro.cli export-demo stock claims.csv --gold gold.csv
    python -m repro.cli methods

``export-demo`` writes one of the generated collections to CSV so the
round-trip can be exercised without private data.  ``stream`` tails a
directory of daily claim CSVs (one snapshot per file, processed in sorted
filename order) through one warm-started :class:`~repro.streaming.StreamRunner`,
emitting each day's selections and trust as it lands.  ``serve`` streams a
directory of daily CSVs the same way into a versioned
:class:`~repro.serving.TruthStore` JSON file, one version per day; a
single claims CSV is served as a one-day directory.  A background
:class:`~repro.serving.StoreWriter` saves the file, so the next day never
waits on it; the file always holds one complete version, and the last one
by the time ``serve`` returns or starts its listener wait.  ``query`` answers
point lookups, ensemble answers, and trust reads from that file without
re-solving anything.

With ``--listen [HOST:]PORT`` ``serve`` additionally exposes the store over
HTTP (:mod:`repro.server`): point lookups, trust reads, ensemble answers,
``/health``, a chunked ``/dump``, and an SSE ``/events`` stream that
surfaces each day's publish and solve progress live.  The listener starts
*before* the solves, so in streaming mode clients watch versions appear as
days land; the store is built with ``monotonic_days=True`` so a delayed
re-publish of an older day can never overwrite a newer snapshot.  A
prebuilt store JSON can be served directly (``serve store.json --listen``).

``fuse``, ``stream`` and ``serve`` solve in process and start no worker
pool; only ``python -m repro.experiments --workers N`` fans solves out.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import (
    FusionError, StalePublishError, StoreWriteError, ValueParseError,
)
from repro.evaluation.metrics import evaluate
from repro.fusion.base import FusionProblem
from repro.fusion.registry import METHOD_NAMES
from repro.io import (
    ClaimsDayReader,
    read_claims_csv,
    read_gold_csv,
    write_claims_csv,
    write_gold_csv,
    write_result_json,
)


def _positive_int(text: str) -> int:
    """An argparse ``type`` for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seconds(text: str) -> float:
    """An argparse ``type`` for durations: a finite number, at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds >= 0, got {text}"
        )
    return value


def _positive_float(text: str) -> float:
    """An argparse ``type`` for thresholds: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}"
        )
    return value


def _method_kwargs(args: argparse.Namespace) -> dict:
    """Solver flags shared by ``fuse``, ``stream`` and ``serve``."""
    kwargs = {}
    if getattr(args, "max_rounds", None) is not None:
        kwargs["max_rounds"] = args.max_rounds
    if getattr(args, "tolerance", None) is not None:
        kwargs["tolerance"] = args.tolerance
    return kwargs


def _cmd_methods(_args: argparse.Namespace) -> int:
    for name in METHOD_NAMES:
        print(name)
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    from repro.parallel import solve_methods

    methods = args.method or ["AccuSim"]
    multi = len(methods) > 1
    outputs = {}
    if args.output:
        output = Path(args.output)
        for name in methods:
            outputs[name] = (
                output.with_name(f"{output.stem}.{name}{output.suffix}")
                if multi else output
            )
    # Output paths are checked and both inputs read before any method
    # solves, so a bad path or a malformed file fails at once rather than
    # after the last solve.
    for path in outputs.values():
        path_error = _store_path_error(path)
        if path_error is not None:
            print(f"error: cannot write {path}: {path_error}", file=sys.stderr)
            return 2
    try:
        dataset = read_claims_csv(args.claims)
        gold = read_gold_csv(args.gold) if args.gold else None
    except (OSError, ValueParseError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not dataset.num_claims:
        print(f"error: {args.claims} holds no claims", file=sys.stderr)
        return 2
    print(
        f"loaded {dataset.num_claims} claims from {dataset.num_sources} sources "
        f"({dataset.num_items} items)",
        file=sys.stderr,
    )
    kwargs = _method_kwargs(args)
    problem = FusionProblem(dataset)
    # One compiled problem, one method run each.
    outcomes = solve_methods(
        problem,
        methods,
        method_kwargs={name: dict(kwargs) for name in methods},
    )
    for name, outcome in zip(methods, outcomes):
        result = outcome.result
        print(
            f"{name}: {result.rounds} rounds, "
            f"converged={result.converged}, {result.runtime_seconds:.2f}s",
            file=sys.stderr,
        )
        if gold is not None:
            score = evaluate(dataset, gold, result)
            prefix = f"{name}: " if multi else ""
            print(f"{prefix}precision={score.precision:.4f} recall={score.recall:.4f}")
        if outputs:
            write_result_json(result, outputs[name])
            print(f"wrote {outputs[name]}", file=sys.stderr)
        elif gold is None:
            for item, value in sorted(result.selected.items())[:20]:
                print(f"{item.object_id}\t{item.attribute}\t{value}")
            if len(result.selected) > 20:
                print(f"... ({len(result.selected)} items; use -o for the full set)")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.streaming import StreamRunner

    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"{directory} is not a directory", file=sys.stderr)
        return 2
    output_dir = Path(args.output_dir) if args.output_dir else None
    if output_dir is not None:
        try:
            output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            print(
                f"error: cannot create output directory {output_dir}: {error}",
                file=sys.stderr,
            )
            return 2
    methods = args.method or ["AccuSim"]
    kwargs = _method_kwargs(args)
    runner = StreamRunner(
        methods,
        {name: dict(kwargs) for name in methods} if kwargs else None,
        warm_start=not args.cold,
    )
    return _stream_loop(args, directory, methods, runner, output_dir)


def _next_step(reader: ClaimsDayReader, path: Path, runner):
    """The runner's step on the day in ``path``; ``None`` (with a warning)
    if the file is malformed or its day cannot be fused, e.g. it holds no
    claims.  The runner and the reader's diff base then stay on the last
    day fused."""
    try:
        return reader.push(reader.read(path), runner)
    except (ValueParseError, FusionError) as error:
        print(f"warning: skipping {path.name}: {error}", file=sys.stderr)
        return None


def _stream_loop(args, directory, methods, runner, output_dir) -> int:
    reader = ClaimsDayReader()
    seen = set()
    idle_polls = 0
    while True:
        pending = sorted(
            p for p in directory.glob("*.csv") if p.name not in seen
        )
        if not pending:
            if not args.follow:
                break
            idle_polls += 1
            if args.max_polls is not None and idle_polls >= args.max_polls:
                break
            time.sleep(args.poll_seconds)
            continue
        idle_polls = 0
        for path in pending:
            if seen and path.name < max(seen):
                # A late-arriving file sorts before a day already fused;
                # warm trust and delta state now see days out of order.
                print(
                    f"warning: {path.name} arrived after later days were "
                    "fused; streaming it out of order",
                    file=sys.stderr,
                )
            seen.add(path.name)
            step = _next_step(reader, path, runner)
            if step is None:
                continue
            stats = step.stats
            for name, result in step.results.items():
                print(
                    f"{step.day} {name}: {len(result.selected)} items, "
                    f"{result.rounds} rounds, converged={result.converged}, "
                    f"compile {step.compile_seconds:.3f}s "
                    f"({'full' if stats.full_compile else 'delta'}, "
                    f"{stats.n_dirty_items} dirty items), "
                    f"solve {result.runtime_seconds:.3f}s"
                )
                if output_dir is not None:
                    out = output_dir / f"{step.day}.{name}.json"
                    write_result_json(result, out)
                    print(f"wrote {out}", file=sys.stderr)
    if not runner.days:
        if seen:
            print(
                f"no claims day in {directory} could be served",
                file=sys.stderr,
            )
        else:
            print(f"no claim CSVs found in {directory}", file=sys.stderr)
        return 1
    print(
        f"streamed {len(runner.days)} day(s) x {len(methods)} method(s)",
        file=sys.stderr,
    )
    return 0


def _parse_listen(text: str) -> Optional[tuple]:
    """``[HOST:]PORT`` -> ``(host, port)``; ``None`` when unparseable."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError:
        return None
    if not 0 <= port <= 65535:
        return None
    return (host or "127.0.0.1", port)


def _start_listener(args: argparse.Namespace, listen: tuple, store):
    from repro.server import run_in_thread

    host, port = listen
    handle = run_in_thread(
        store,
        host,
        port,
        auth_token=args.auth_token,
        log_stream=None if args.no_request_log else sys.stderr,
    )
    print(f"serving on {handle.url}", file=sys.stderr)
    return handle


def _listen_wait(args: argparse.Namespace) -> None:
    """Block while the HTTP listener serves (bounded by ``--listen-for``)."""
    try:
        if args.listen_for is not None:
            time.sleep(args.listen_for)
        else:  # pragma: no cover - interactive serve-until-interrupted
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import StoreWriter, TruthStore

    listen = None
    if args.listen is not None:
        listen = _parse_listen(args.listen)
        if listen is None:
            print(
                f"--listen expects [HOST:]PORT, got {args.listen!r}",
                file=sys.stderr,
            )
            return 2
    source = Path(args.source)
    methods = args.method or ["AccuSim"]
    kwargs = _method_kwargs(args)

    if source.is_file() and source.suffix == ".json":
        # A prebuilt store: nothing to solve, just answer traffic from it.
        if listen is None:
            print(
                f"{source} looks like a store JSON; serving it needs "
                "--listen [HOST:]PORT (use `query` for one-shot reads)",
                file=sys.stderr,
            )
            return 2
        try:
            store = TruthStore.load(source)
        except (OSError, ValueError, ValueParseError) as error:
            print(f"cannot read store {source}: {error}", file=sys.stderr)
            return 2
        with _start_listener(args, listen, store):
            _listen_wait(args)
        return 0

    if source.is_dir():
        paths = sorted(source.glob("*.csv"))
        if not paths:
            print(f"no claim CSVs found in {source}", file=sys.stderr)
            return 1
    elif source.is_file():
        paths = [source]  # a snapshot is a one-day stream
    else:
        print(
            f"{source} is neither a claims CSV nor a directory",
            file=sys.stderr,
        )
        return 2
    store_error = _store_path_error(Path(args.store))
    if store_error is not None:
        print(f"cannot write store {args.store}: {store_error}", file=sys.stderr)
        return 2
    # Live listeners get a monotonic store: the publish loop is exactly
    # where a delayed re-publish of an older day would otherwise silently
    # overwrite a newer snapshot under concurrent readers.
    store = TruthStore(monotonic_days=listen is not None)
    handle = _start_listener(args, listen, store) if listen else None
    try:
        # The writer saves in the background, so the next day's solve
        # never waits on the previous day's file.
        with StoreWriter(store, args.store) as writer:
            try:
                _serve_days(args, paths, methods, kwargs, store, writer, handle)
                if store.version == 0:
                    print(
                        f"no claims day in {source} could be served",
                        file=sys.stderr,
                    )
                    return 1
                writer.flush()
                print(
                    f"saved version {store.version} to {args.store}",
                    file=sys.stderr,
                )
                if handle is not None:
                    _listen_wait(args)
            except KeyboardInterrupt:
                # An interrupt is how a live server is asked to stop.  One
                # that lands before the listener wait (a day still solving
                # or saving) ends the run the same way; closing the writer
                # lets its save in flight finish, and saves are atomic, so
                # the store file holds one complete version.
                if handle is None:
                    raise
    except StoreWriteError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if handle is not None:
            handle.stop()
    return 0


def _store_path_error(path: Path) -> Optional[str]:
    """Why a file (a store or a result) cannot be written at ``path``.

    ``None`` if it can.
    """
    directory = path.parent
    if not directory.is_dir():
        return f"directory {directory} does not exist"
    if path.is_dir():
        return "it is a directory"
    if not os.access(directory, os.W_OK | os.X_OK):
        return f"directory {directory} is not writable"
    return None


def _serve_days(args, paths, methods, kwargs, store, writer, handle) -> None:
    """Publish every daily CSV as the next store version."""
    from repro.serving import TruthService

    # After the first day, each file is diffed against the last consumed one
    # and applied as a claim delta.
    service = TruthService(
        methods,
        {name: dict(kwargs) for name in methods} if kwargs else None,
        store=store,
    )
    reader = ClaimsDayReader()
    for path in paths:
        step = _next_step(reader, path, service.runner)
        if step is None:
            continue
        try:
            version = store.publish_step(step)
        except StalePublishError as error:
            print(
                f"warning: skipping {path.name}: {error}",
                file=sys.stderr,
            )
            continue
        writer.check()
        if handle is not None:
            handle.broadcast("day", {
                "day": step.day,
                "version": version,
                "compile_s": round(step.compile_seconds, 4),
                "rounds": {
                    name: result.rounds
                    for name, result in step.results.items()
                },
            })
        # The file catches up in the background: this line reports
        # the publish, not the save.
        print(
            f"{step.day}: published version {version}, "
            f"{store.n_items} items",
            file=sys.stderr,
        )


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serving import TruthStore

    try:
        store = TruthStore.load(args.store)
    except (OSError, ValueError, ValueParseError) as error:
        print(f"cannot read store {args.store}: {error}", file=sys.stderr)
        return 2
    snap = store.snapshot()
    if args.method is not None and args.method not in snap.methods:
        print(f"method {args.method!r} is not published", file=sys.stderr)
        return 1
    if args.trust:
        value = store.trust(args.trust, method=args.method, snapshot=snap)
        if value is None:
            print(f"unknown source {args.trust!r}", file=sys.stderr)
            return 1
        print(f"{args.trust}\t{value:.6f}")
        return 0
    if args.object or args.attribute or args.ensemble:
        if not (args.object and args.attribute):
            print(
                "query needs both --object and --attribute", file=sys.stderr
            )
            return 2
        if args.ensemble:
            answer = store.ensemble(args.object, args.attribute, snapshot=snap)
        else:
            answer = store.lookup(
                args.object, args.attribute, method=args.method, snapshot=snap
            )
        if answer is None:
            print(
                f"no truth for ({args.object!r}, {args.attribute!r})",
                file=sys.stderr,
            )
            return 1
        print(
            f"{answer.object_id}\t{answer.attribute}\t{answer.value}\t"
            f"({answer.method}, version {answer.version}, day {answer.day})"
        )
        return 0
    print(
        f"store version {snap.version} (day {snap.day}): {snap.n_items} items, "
        f"methods: {', '.join(snap.methods)}"
    )
    return 0


def _cmd_export_demo(args: argparse.Namespace) -> int:
    if args.domain == "stock":
        from repro.datagen import StockConfig, generate_stock_collection

        collection = generate_stock_collection(StockConfig.small())
    else:
        from repro.datagen import FlightConfig, generate_flight_collection

        collection = generate_flight_collection(FlightConfig.small())
    write_claims_csv(collection.snapshot, args.claims)
    print(f"wrote {args.claims}", file=sys.stderr)
    if args.gold:
        write_gold_csv(collection.gold, args.gold)
        print(f"wrote {args.gold}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Truth discovery over a claims CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="run fusion method(s) on a claims CSV")
    fuse.add_argument("claims", help="claims CSV (see repro.io)")
    fuse.add_argument("--method", action="append", choices=METHOD_NAMES,
                      help="method(s) to run (repeatable; default: AccuSim)")
    fuse.add_argument("--gold", help="optional gold CSV to score against")
    fuse.add_argument("-o", "--output",
                      help="write the result JSON here (with several methods "
                           "the method name is inserted before the suffix)")
    fuse.add_argument("--max-rounds", type=_positive_int, default=None,
                      help="cap on fixed-point rounds (method default: 60)")
    fuse.add_argument("--tolerance", type=_positive_float, default=None,
                      help="L-inf trust convergence threshold (default 1e-5)")
    fuse.set_defaults(func=_cmd_fuse)

    stream = sub.add_parser(
        "stream",
        help="tail a directory of daily claim CSVs through warm-started fusion",
    )
    stream.add_argument("directory", help="directory of per-day claims CSVs")
    stream.add_argument("--method", action="append", choices=METHOD_NAMES,
                        help="method(s) to stream (default: AccuSim)")
    stream.add_argument("--output-dir",
                        help="write per-day result JSONs (<day>.<method>.json)")
    stream.add_argument("--cold", action="store_true",
                        help="cold-start trust every day instead of warm-starting")
    stream.add_argument("--follow", action="store_true",
                        help="keep polling the directory for new CSVs")
    stream.add_argument("--poll-seconds", type=_seconds, default=2.0,
                        help="polling interval with --follow (default 2s)")
    stream.add_argument("--max-polls", type=int, default=None,
                        help="stop --follow after this many idle polls")
    stream.add_argument("--max-rounds", type=_positive_int, default=None,
                        help="cap on fixed-point rounds (method default: 60)")
    stream.add_argument("--tolerance", type=_positive_float, default=None,
                        help="L-inf trust convergence threshold (default 1e-5)")
    stream.set_defaults(func=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="fuse claims into a queryable truth-store JSON file",
    )
    serve.add_argument("source",
                       help="claims CSV, a directory of per-day CSVs (each "
                            "day becomes the next store version), or an "
                            "existing store JSON to serve with --listen")
    serve.add_argument("--method", action="append", choices=METHOD_NAMES,
                       help="method(s) to publish (repeatable; default: AccuSim)")
    serve.add_argument("--store", default="truth_store.json",
                       help="output store path (default: truth_store.json)")
    serve.add_argument("--max-rounds", type=_positive_int, default=None,
                       help="cap on fixed-point rounds (method default: 60)")
    serve.add_argument("--tolerance", type=_positive_float, default=None,
                       help="L-inf trust convergence threshold (default 1e-5)")
    serve.add_argument("--listen", metavar="[HOST:]PORT", default=None,
                       help="also serve the store over HTTP (asyncio "
                            "front-end: /health /lookup /trust /ensemble "
                            "/dump /events); the listener starts before the "
                            "solves so publishes are visible live")
    serve.add_argument("--listen-for", type=_seconds, default=None,
                       metavar="SECONDS",
                       help="stop the HTTP listener after this many seconds "
                            "(default: serve until interrupted)")
    serve.add_argument("--auth-token", default=None,
                       help="require this bearer token (Authorization: "
                            "Bearer or X-API-Token) on every endpoint "
                            "except /health")
    serve.add_argument("--no-request-log", action="store_true",
                       help="disable the structured JSON request log "
                            "emitted to stderr while listening")
    serve.set_defaults(func=_cmd_serve)

    query = sub.add_parser(
        "query",
        help="answer point lookups from a truth-store JSON file",
    )
    query.add_argument("store", help="store JSON written by `serve`")
    query.add_argument("--object", help="object id to look up")
    query.add_argument("--attribute", help="attribute to look up")
    query.add_argument("--method", default=None,
                       help="published method to read (default: first)")
    query.add_argument("--ensemble", action="store_true",
                       help="majority vote across all published methods")
    query.add_argument("--trust", metavar="SOURCE",
                       help="read a source's published trustworthiness")
    query.set_defaults(func=_cmd_query)

    demo = sub.add_parser("export-demo", help="export a generated collection")
    demo.add_argument("domain", choices=("stock", "flight"))
    demo.add_argument("claims", help="output claims CSV path")
    demo.add_argument("--gold", help="also write the gold standard here")
    demo.set_defaults(func=_cmd_export_demo)

    methods = sub.add_parser("methods", help="list available fusion methods")
    methods.set_defaults(func=_cmd_methods)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
