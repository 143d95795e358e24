"""The four workloads.  Each drives the program only through its entry
points (``python -m repro.experiments`` and ``python -m repro.cli serve``)
in a separate process, checks every output, and returns a :class:`Outcome`.

With ``trace`` set, a workload runs twice: once untraced (the numbers the
per-layer payload quotes as end-to-end detail) and once under the traced
launcher (span totals per layer, and the tracing overhead).
"""

from __future__ import annotations

import datetime
import hashlib
import json
import random
import re
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

import harness
import loadgen
from harness import HOST, RunDir

#: The methods ``day`` and ``serve`` publish (one cheap, two iterative,
#: one copy-aware).
METHODS = ("Vote", "AccuPr", "TruthFinder", "AccuCopy")
#: Setup (spawn until ready) is measured this many times per run.
SETUP_SPAWNS = 3
#: ``day``: perturbed days after the report snapshot, churn per day, and
#: the open-loop background read rate.
DAY_COUNT = 30
DAY_CHURN = 0.003
DAY_READ_RPS = 200
#: ``serve``: closed-loop batch size, fixed open-loop rate, the ladder,
#: and the latency limit the ladder and lateness checks use.
SERVE_BATCH = 3000
SERVE_FIXED_RPS = 1000
SERVE_LADDER_STEP_RPS = 500
SERVE_LADDER_MAX_RPS = 10000
LIMIT_MS = 5.0
LATE_LIMIT_MS = LIMIT_MS / 10.0
SERVE_MIX = (("lookup", 0.80), ("ensemble", 0.15), ("trust", 0.05))
#: Program timeouts: a whole reproduction, and a serving program's exit.
JOB_TIMEOUT_S = 170.0
EXIT_TIMEOUT_S = 30.0

_REPRODUCE_LAYERS = (
    "reproduce_s", "datagen.snapshots", "core.columnar.builds",
    "fusion.compile.count", "fusion.fixed_point.solves", "copying.calls",
    "fusion.batch.jobs", "parallel.jobs", "core.gold.is_correct_calls",
    "evaluation.self_s", "profiling.self_s", "experiments.table9.self_s",
)
#: Per-layer metrics each workload's traced run must read non-zero: the
#: layers it exercises.  serve_max_rps is left out: a host stall during one
#: short ladder step can leave no step met, and 0 is then the honest reading.
EXERCISED = {
    "reproduce": _REPRODUCE_LAYERS,
    # With two workers the batched sweeps run in the workers, which the
    # traced launcher does not follow.
    "reproduce_w2": tuple(
        name for name in _REPRODUCE_LAYERS if name != "fusion.batch.jobs"
    ) + ("parallel.export_s",),
    "day": ("day_first_s", "day_p50_s", "day_read_p99_ms", "io.rows",
            "io.bytes", "core.delta.dirty_share", "core.delta.full_compiles",
            "streaming.self_s", "serving.publish_s", "serving.save_bytes",
            "server.requests", "loadgen.sent"),
    "serve": ("serve_p50_ms", "serve_p99_ms", "serving.reads",
              "server.handler_p99_ms", "server.requests", "loadgen.sent"),
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; a failed one is also noted."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass
class Config:
    seed: int
    seconds: float
    trace: bool
    scale: str  # "small" for the benchmark, "tiny" for the smoke test

    @property
    def day_count(self) -> int:
        return DAY_COUNT if self.scale == "small" else 12


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ms(seconds: Sequence[float]) -> List[float]:
    return [s * 1e3 for s in seconds]


def _raw(intervals: Sequence[Tuple[float, float]]) -> List[float]:
    return [t1 - t0 for t0, t1 in intervals]


def _scaled(intervals: Sequence[Tuple[float, float]]) -> List[float]:
    """Each ``(start, end)`` interval at the reference host speed (the
    end-to-end times; see ``harness.Probe``)."""
    return [harness.PROBE.scale(t0, t1) for t0, t1 in intervals]


# ---------------------------------------------------------------- tracing
def layer_metrics(trace: dict) -> Dict[str, float]:
    """Per-layer metrics from a launcher trace (see perfbench/README.md)."""
    layers, names, counters = trace["layers"], trace["names"], trace["counters"]

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def incl_s(layer: str) -> float:
        return layers.get(layer, {}).get("incl_s", 0.0)

    def calls(*qualnames: str) -> int:
        return sum(names.get(n, {}).get("calls", 0) for n in qualnames)

    solves = calls("run_fixed_point")
    active = counters.get("core.delta.active_items", 0)
    out = {
        "datagen.self_s": self_s("datagen"),
        "datagen.snapshots": calls("generate_snapshot"),
        "core.columnar.self_s": self_s("core.columnar"),
        "core.columnar.builds": calls("Dataset.columnar"),
        "fusion.compile.self_s": self_s("fusion.compile"),
        "fusion.compile.count": calls("FusionProblem._init_from"),
        "fusion.fixed_point.self_s": self_s("fusion.fixed_point"),
        "fusion.fixed_point.solves": solves,
        "fusion.fixed_point.rounds": counters.get("fusion.fixed_point.rounds", 0),
        "fusion.fixed_point.converged_share": (
            counters.get("fusion.fixed_point.converged", 0) / solves if solves else 0.0
        ),
        "copying.self_s": self_s("copying"),
        "copying.calls": calls("detect_copying"),
        "fusion.batch.self_s": self_s("fusion.batch"),
        "fusion.batch.jobs": counters.get("fusion.batch.jobs", 0),
        "parallel.self_s": self_s("parallel"),
        "parallel.jobs": counters.get("parallel.jobs", 0),
        "parallel.export_s": incl_s("parallel.export"),
        "core.gold.self_s": self_s("core.gold"),
        "core.gold.is_correct_calls": calls("GoldStandard.is_correct"),
        "evaluation.self_s": self_s("evaluation"),
        "profiling.self_s": self_s("profiling"),
        "io.self_s": self_s("io"),
        "io.rows": counters.get("io.rows", 0),
        "io.bytes": counters.get("io.bytes", 0),
        "core.delta.self_s": self_s("core.delta"),
        "core.delta.dirty_share": (
            counters.get("core.delta.dirty_items", 0) / active if active else 0.0
        ),
        "core.delta.full_compiles": counters.get("core.delta.full_compiles", 0),
        "streaming.self_s": self_s("streaming"),
        "serving.publish_s": incl_s("serving.publish"),
        "serving.save_s": incl_s("serving.save"),
        "serving.save_bytes": counters.get("serving.save_bytes", 0),
        "serving.reads": calls(
            "TruthStore.lookup", "TruthStore.ensemble", "TruthStore.trust"
        ),
    }
    for layer in layers:
        if layer.startswith("experiments."):
            out[f"{layer}.self_s"] = self_s(layer)
    return out


def _load_trace(path, out: Outcome) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, ValueError) as error:
        out.check(False, f"trace unreadable: {error}")
        return None
    # For reference only: the program bumps this counter in the very call
    # that fusion.compile.count counts.
    out.info["problem_compiles"] = trace["problem_compiles"]
    out.info["trace_spans"] = len(trace["spans"])
    return trace


def check_exercised(workload: str, out: Outcome) -> None:
    """A per-layer metric of a layer the workload exercises that reads zero
    means a wrapper stopped matching: count it as a failed operation."""
    for name in EXERCISED[workload]:
        out.check(out.layers.get(name, 0) > 0, f"per-layer metric {name} read zero")


# -------------------------------------------------------------- reproduce
_HEADER = re.compile(r"^== (\S+) \(scale=\w+, [^)]*\) ==$")
_FIG12_ROW = re.compile(r"^(\S+)\s+\d+\.\d+\s+(\S+)\s+(\S+)$")


def _normalize(artifact: str, body: str) -> str:
    """Drop wall-clock content: Figure 12's runtime column (and the row
    order it sorts by)."""
    if artifact != "figure12":
        return body
    blocks = []
    for block in body.split("\n\n"):
        lines = block.splitlines()
        rows = sorted(
            " ".join(match.groups())
            for match in map(_FIG12_ROW.match, lines[3:]) if match
        )
        blocks.append("\n".join([lines[0], *rows]))
    return "\n\n".join(blocks)


def artifact_digests(report: str) -> Dict[str, str]:
    """sha256 of each rendered artifact in an ``experiments all`` report."""
    sections: Dict[str, List[str]] = {}
    current = None
    for line in report.splitlines():
        match = _HEADER.match(line)
        if match:
            current = match.group(1)
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    sections.pop("context", None)
    return {
        key: hashlib.sha256(
            _normalize(key, "\n".join(lines).strip()).encode("utf-8")
        ).hexdigest()
        for key, lines in sections.items()
    }


def expected_digests(scale: str) -> Dict[str, str]:
    with open(harness.BENCH_DIR / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)["reproduce"][scale]


def _reproduce_job(cfg: Config, rd: RunDir, workers: int, out: Outcome,
                   expected: Dict[str, str], trace_path=None):
    proc = harness.spawn(
        ["repro.experiments", "all", "--scale", cfg.scale, "--workers", str(workers)],
        rd, "all", trace_path,
    )
    if trace_path is None:
        # With two workers the work is spread over every CPU.
        harness.PROBE.follow(0 if workers > 1 else proc.pid)
    code = harness.reap(proc, JOB_TIMEOUT_S)
    out.check(code == 0, f"experiments all exited {code}")
    report = (rd / "all.out").read_text(encoding="utf-8", errors="replace")
    got = artifact_digests(report)
    for key, digest in expected.items():
        out.check(got.get(key) == digest, f"{key} output differs from the seed")
    return proc


def reproduce(cfg: Config, rd: RunDir, workers: int) -> Outcome:
    out = Outcome()
    expected = expected_digests(cfg.scale)
    setups = []
    for _ in range(SETUP_SPAWNS):
        proc = harness.spawn(["repro.experiments", "--help"], rd, "help")
        harness.PROBE.follow(proc.pid)
        out.check(harness.reap(proc, 60.0) == 0, "--help failed")
        setups.append((proc.started, proc.ended))
    jobs, rss = [], []
    started = time.perf_counter()
    while not jobs or time.perf_counter() - started < cfg.seconds:
        proc = _reproduce_job(cfg, rd, workers, out, expected)
        jobs.append((proc.started, proc.ended))
        rss.append(proc.peak_rss_mb)
    harness.PROBE.stop()
    walls = _raw(jobs)
    out.e2e = {
        "setup_s": _median(_scaled(setups)),
        "peak_rss_mb": _median(rss),
        "total_s": _median(_scaled(jobs)),
    }
    out.info.update(jobs=len(jobs), job_walls_s=walls, job_scaled_s=_scaled(jobs),
                    setup_samples_s=_raw(setups), setup_scaled_s=_scaled(setups),
                    artifacts=len(expected), workers=workers)
    if cfg.trace:
        proc = _reproduce_job(cfg, rd, workers, out, expected,
                              trace_path=rd / "trace.json")
        traced_wall = proc.ended - proc.started
        trace = _load_trace(rd / "trace.json", out)
        if trace is not None:
            out.layers.update(layer_metrics(trace))
        out.layers["reproduce_s"] = walls[0]
        out.layers["trace.overhead_share"] = (traced_wall - walls[0]) / walls[0]
    return out


# ---------------------------------------------------------- serving helpers
def _serve_args(source, port: int, token: str, methods: Sequence[str] = ()):
    args = ["repro.cli", "serve", str(source), "--listen", f"{HOST}:{port}",
            "--auth-token", token, "--listen-for", "600"]
    for name in methods:
        args += ["--method", name]
    return args


def _start_serving(args_for_port, rd: RunDir, log_name: str, trace_path=None):
    """Spawn a listening program on a fresh port.

    Returns ``(proc, port, setup, ready)``: ``setup`` is the interval
    from spawn until ``/health`` answers; ``ready`` is its end
    (``perf_counter``).  Untraced programs are followed by the probe.
    """
    for _attempt in range(3):
        port = harness.free_port()
        proc = harness.spawn(args_for_port(port), rd, log_name, trace_path)
        if trace_path is None:
            harness.PROBE.follow(proc.pid)
        try:
            ready = harness.wait_ready(proc, port)
        except RuntimeError:
            harness.kill(proc)
            harness.reap(proc, 10.0)
            continue
        return proc, port, (proc.started, ready), ready
    raise RuntimeError("the program never became ready (see its stderr log)")


def _setup_samples(args_for_port, rd: RunDir) -> List[Tuple[float, float]]:
    """Spawn-until-ready intervals for all but the last setup sample; the
    measured run's own spawn is the last.  These extra programs are
    killed."""
    samples = []
    for k in range(SETUP_SPAWNS - 1):
        proc, _port, setup, _ready = _start_serving(args_for_port, rd, f"setup{k}")
        harness.kill(proc)
        harness.reap(proc, 10.0)
        samples.append(setup)
    return samples


def request_log(path) -> List[dict]:
    """The program's JSON request-log lines (other stderr lines skipped)."""
    entries = []
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if line.startswith("{") and '"duration_ms"' in line:
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    pass
    return [e for e in entries if e.get("path") != "/health"]


def server_wait_ms(records: Sequence[loadgen.Record], paths: Sequence[str],
                   log: Sequence[dict]) -> List[float]:
    """Client latency (from send) minus the handler's ``duration_ms``.

    Log lines carry no request id, so each is matched to the request of
    the same path whose send..receive interval contains the line's
    timestamp (at most one request per connection is in flight).
    """
    pending = sorted(
        (r for r in records if r.done), key=lambda r: r.sent_wall
    )
    waits, cursor, open_records = [], 0, []
    for entry in sorted(log, key=lambda e: e["ts"]):
        ts = entry["ts"]
        while cursor < len(pending) and pending[cursor].sent_wall <= ts:
            open_records.append(pending[cursor])
            cursor += 1
        open_records = [r for r in open_records if r.done_wall >= ts - 1e-3]
        for r in open_records:
            if paths[r.index] == entry["path"]:
                open_records.remove(r)
                waits.append(r.service * 1e3 - entry["duration_ms"])
                break
    return waits


def _server_layers(log: Sequence[dict], waits: Sequence[float]) -> Dict[str, float]:
    durations = [e["duration_ms"] for e in log]
    return {
        "server.handler_p50_ms": loadgen.percentile(durations, 50),
        "server.handler_p99_ms": loadgen.percentile(durations, 99),
        "server.wait_p99_ms": loadgen.percentile(waits, 99),
        "server.requests": len(log),
        # A 404 is an answer ("no truth" before the first publish), not an error.
        "server.errors": sum(1 for e in log if e.get("status") not in (200, 404)),
    }


def _inputs_info(out: Outcome, dataset, gen_s: float, **extra) -> None:
    out.info["inputs"] = {
        "claims": dataset.num_claims,
        "items": dataset.num_items,
        "sources": dataset.num_sources,
        "generation_s": gen_s,
        **extra,
    }


def report_snapshot(scale: str):
    """The Stock report-day snapshot, generated without the other days
    (identical to ``generate_stock_collection(config).snapshot``)."""
    from repro.datagen.generator import generate_snapshot
    from repro.datagen.stock import (
        DOMAIN, StockConfig, StockWorld, build_stock_profiles,
    )

    config = StockConfig.small() if scale == "small" else StockConfig.tiny()
    world = StockWorld(n_objects=config.n_objects, num_days=config.num_days,
                       seed=config.seed, n_terminated=config.n_terminated)
    profiles = build_stock_profiles(world, config)
    day = config.report_day()
    return generate_snapshot(DOMAIN, world, profiles,
                             config.day_labels().index(day), day, seed=config.seed)


# -------------------------------------------------------------------- day
def _day_inputs(cfg: Config, rd: RunDir, out: Outcome):
    """The daily CSVs plus the reference store snapshots, one per day."""
    harness.use_sources()
    from repro.datagen.streams import perturbed_claim_stream
    from repro.io import write_claims_csv
    from repro.serving import TruthService

    started = time.perf_counter()
    base = report_snapshot(cfg.scale)
    stream = perturbed_claim_stream(
        base, cfg.day_count, churn=DAY_CHURN, seed=cfg.seed
    )
    # Consecutive ISO dates: perturbed_claim_stream labels days "<day>+N",
    # which sort as strings ("+10" < "+9"), so the monotonic store behind
    # `serve --listen` would reject every day after the ninth.
    first = datetime.date.fromisoformat(base.day)
    for offset, snapshot in enumerate(stream.snapshots, start=1):
        snapshot.day = (first + datetime.timedelta(days=offset)).isoformat()
    days = [base, *stream.snapshots]
    day_dir = rd / "days"
    day_dir.mkdir()
    for snapshot in days:
        write_claims_csv(snapshot, day_dir / f"{snapshot.day}.csv")
    gen_s = time.perf_counter() - started
    csv_bytes = sum(p.stat().st_size for p in day_dir.iterdir())

    # The reference: an untimed in-process service over the same days.
    snapshots = []
    with TruthService(list(METHODS)) as service:
        service.store.add_listener(snapshots.append)
        for snapshot in days:
            service.ingest(snapshot)
    _inputs_info(out, base, gen_s, days=len(days), csv_bytes=csv_bytes,
                 churn=DAY_CHURN, stream_seed=cfg.seed)
    # Only labels and keys are kept: the datasets would slow every
    # garbage collection in the load generator.
    keys = [(item.object_id, item.attribute) for item in base.items]
    return day_dir, [snapshot.day for snapshot in days], snapshots, keys


def _check_day_reads(records, keys_by_index, snapshots, days, out: Outcome) -> None:
    last_version = 0
    for record in records:
        if not record.done:
            continue
        key = keys_by_index[record.index]
        try:
            body = json.loads(record.body)
        except ValueError:
            out.check(False, f"unparseable read body {record.body[:80]!r}")
            continue
        version = body.get("version", -1)
        ok = 0 <= version <= len(snapshots) and version >= last_version
        if ok and record.status == 200:
            snap = snapshots[version - 1]
            ok = (
                body["day"] == days[version - 1]
                and body["value"] == snap.truths[key][METHODS[0]]
            )
        elif ok and record.status == 404:
            ok = version == 0 or key not in snapshots[version - 1].truths
        else:
            ok = False
        out.check(ok, f"read {key} -> {record.status} {record.body[:120]!r}")
        last_version = max(last_version, version)


def _check_dump(port: int, token: str, snapshot, out: Outcome) -> None:
    try:
        lines = loadgen.read_dump(HOST, port, token)
    except (OSError, ValueError) as error:
        out.check(False, f"/dump failed: {error}")
        return
    got = {
        (line["object"], line["attribute"]): line["values"] for line in lines
        if line.get("version") == snapshot.version
    }
    out.check(
        len(got) == len(lines) and got == snapshot.truths,
        f"/dump ({len(lines)} lines) differs from the in-process reference",
    )


class Reads:
    """The seeded background ``/lookup`` schedule of the ``day`` workload,
    built before the program starts so reading begins the moment it is
    ready."""

    def __init__(self, keys, token: str, seed: int):
        rng = random.Random(seed)
        n = int(DAY_READ_RPS * JOB_TIMEOUT_S)
        self.keys = [keys[rng.randrange(len(keys))] for _ in range(n)]
        self.requests = [
            loadgen.request_bytes(
                "/lookup?" + urlencode({"object": obj, "attribute": attr}), token
            )
            for obj, attr in self.keys
        ]
        self.offsets = [i / DAY_READ_RPS for i in range(n)]
        self.paths = ["/lookup"] * n


def _day_pass(cfg, rd, day_dir, days, snapshots, reads, out, token, trace_path=None,
              setup=True):
    """One served day stream; returns its timings."""
    def args_for_port(port):
        return _serve_args(day_dir, port, token, METHODS) + [
            "--store", str(rd / f"store-{port}.json")
        ]

    setups = _setup_samples(args_for_port, rd) if setup else []
    log_name = "day-traced" if trace_path else "day"
    proc, port, spawn_to_ready, ready = _start_serving(
        args_for_port, rd, log_name, trace_path
    )
    setups.append(spawn_to_ready)

    final = len(days)
    result = loadgen.run_schedule(
        HOST, port, reads.requests, reads.offsets, connections=1,
        stop=lambda record: record.version >= final,
    )
    out.check(result.error is None, f"reader: {result.error}")
    out.check(result.stopped_early, f"version {final} never appeared")
    _check_day_reads(result.records, reads.keys, snapshots, days, out)
    _check_dump(port, token, snapshots[-1], out)
    code = harness.interrupt(proc, EXIT_TIMEOUT_S)
    out.check(code == 0, f"serve exited {code}")

    first_seen: Dict[int, float] = {}
    for record in result.records:
        if record.done and record.version >= 1:
            first_seen.setdefault(record.version, record.done)
    gaps = [
        first_seen[v] - first_seen[v - 1]
        for v in range(2, final + 1) if v in first_seen and v - 1 in first_seen
    ]
    done = [r for r in result.records if r.done]
    return {
        "setups": setups,
        "rss": proc.peak_rss_mb,
        "first": first_seen.get(1, ready) - ready,
        "total": (ready, first_seen.get(final, ready)),
        "gaps": gaps,
        "read_ms": _ms([r.latency for r in done]),
        "late_ms": _ms([r.late for r in done]),
        "records": done,
        "log": request_log(rd / f"{log_name}.err"),
    }


def day(cfg: Config, rd: RunDir) -> Outcome:
    out = Outcome()
    token = f"bench-{cfg.seed}"
    day_dir, days, snapshots, keys = _day_inputs(cfg, rd, out)
    reads = Reads(keys, token, cfg.seed)
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < cfg.seconds:
        passes.append(
            _day_pass(cfg, rd, day_dir, days, snapshots, reads, out, token,
                      setup=not passes)
        )
    harness.PROBE.stop()
    first = passes[0]
    totals = [p["total"] for p in passes]
    out.e2e = {
        "setup_s": _median(_scaled(first["setups"])),
        "peak_rss_mb": _median([p["rss"] for p in passes]),
        "total_s": _median(_scaled(totals)),
    }
    tail_pct, tail = loadgen.tail_percentile(first["gaps"])
    untraced = first["total"][1] - first["total"][0]
    out.info.update(
        passes=len(passes), pass_totals_s=_raw(totals),
        pass_scaled_s=_scaled(totals), setup_samples_s=_raw(first["setups"]),
        setup_scaled_s=_scaled(first["setups"]),
        day_gaps_s=first["gaps"], day_tail_percentile=tail_pct,
        reads=len(first["read_ms"]), read_rps=DAY_READ_RPS,
    )
    if cfg.trace:
        traced = _day_pass(cfg, rd, day_dir, days, snapshots, reads, out, token,
                           trace_path=rd / "trace.json", setup=False)
        trace = _load_trace(rd / "trace.json", out)
        if trace is not None:
            out.layers.update(layer_metrics(trace))
        out.layers.update(_server_layers(
            first["log"], server_wait_ms(first["records"], reads.paths, first["log"])
        ))
        out.layers.update({
            "day_first_s": first["first"],
            "day_p50_s": _median(first["gaps"]),
            "day_tail_s": tail,
            "day_read_p99_ms": loadgen.percentile(first["read_ms"], 99),
            "loadgen.late_p99_ms": loadgen.percentile(first["late_ms"], 99),
            "loadgen.sent": len(first["records"]),
            "trace.overhead_share": (
                (traced["total"][1] - traced["total"][0]) - untraced
            ) / untraced,
        })
    return out


# ------------------------------------------------------------------ serve
def _serve_inputs(cfg: Config, rd: RunDir, out: Outcome):
    harness.use_sources()
    from repro.serving import TruthService

    started = time.perf_counter()
    base = report_snapshot(cfg.scale)
    with TruthService(list(METHODS)) as service:
        service.ingest(base)
    store = service.store
    path = rd / "store.json"
    store.save(path)
    gen_s = time.perf_counter() - started
    _inputs_info(out, base, gen_s, store_bytes=path.stat().st_size,
                 mix_seed=cfg.seed)
    return path, store


class Mix:
    """A seeded request stream over the store with its expected answers."""

    def __init__(self, store, token: str, seed: int, size: int):
        snap = store.snapshot()
        keys = sorted(snap.truths)
        sources = sorted(snap.trust[snap.methods[0]])
        rng = random.Random(seed)
        self.requests: List[bytes] = []
        self.paths: List[str] = []
        self.expected: List[object] = []
        for _ in range(size):
            roll, kind = rng.random(), SERVE_MIX[-1][0]
            for name, share in SERVE_MIX:
                if roll < share:
                    kind = name
                    break
                roll -= share
            if kind == "trust":
                source = sources[rng.randrange(len(sources))]
                query = {"source": source}
                answer = store.trust(source, snapshot=snap)
            else:
                object_id, attribute = keys[rng.randrange(len(keys))]
                query = {"object": object_id, "attribute": attribute}
                found = (store.lookup if kind == "lookup" else store.ensemble)(
                    object_id, attribute, snapshot=snap
                )
                answer = found.value
            self.paths.append(f"/{kind}")
            self.expected.append(answer)
            self.requests.append(
                loadgen.request_bytes(f"/{kind}?{urlencode(query)}", token)
            )

    def check(self, records, out: Outcome) -> int:
        """Verify every answer; returns how many failed."""
        failed = 0
        for record in records:
            ok = record.done and record.status == 200
            if ok:
                body = json.loads(record.body)
                field_name = "trust" if self.paths[record.index] == "/trust" else "value"
                ok = body.get(field_name) == self.expected[record.index]
            failed += not ok
            out.check(bool(ok), f"{self.paths[record.index]} -> {record.status} "
                                f"{record.body[:120]!r}")
        return failed


def _closed_batches(port: int, mix: Mix, seconds: float,
                    out: Outcome) -> List[Tuple[float, float]]:
    """Closed-loop batches for ``seconds``: two keep-alive connections,
    each sending its next request when the previous answer arrives.
    Returns each batch's ``(start, end)``."""
    batches = []
    requests, offsets = mix.requests[:SERVE_BATCH], [0.0] * SERVE_BATCH
    started = time.perf_counter()
    while len(batches) < 2 or time.perf_counter() - started < seconds:
        begin = time.perf_counter()
        result = loadgen.run_schedule(HOST, port, requests, offsets, connections=2)
        batches.append((begin, time.perf_counter()))
        out.check(result.error is None, f"closed loop: {result.error}")
        mix.check(result.records, out)
    return batches


def _open_phase(port: int, mix: Mix, rate: float, seconds: float, out: Outcome,
                offset: int = 0) -> dict:
    n = max(1, int(rate * seconds))
    requests = [mix.requests[(offset + i) % len(mix.requests)] for i in range(n)]
    result = loadgen.run_schedule(HOST, port, requests, [i / rate for i in range(n)])
    out.check(result.error is None, f"open loop @{rate}: {result.error}")
    # Records index into this phase's list; re-key them onto the mix.
    for record in result.records:
        record.index = (offset + record.index) % len(mix.requests)
    failed = mix.check(result.records, out) + (n - len(result.records))
    done = [r for r in result.records if r.done]
    latency = _ms([r.latency for r in done])
    late = _ms([r.late for r in done])
    return {
        "rate": rate,
        "sent": len(result.records),
        "failed": failed,
        "p50_ms": loadgen.percentile(latency, 50),
        "p99_ms": loadgen.percentile(latency, 99),
        "late_p99_ms": loadgen.percentile(late, 99),
        "backlog": result.backlog_at_end,
        "records": done,
        "late_ms": late,
    }


def _ladder(port: int, mix: Mix, step_seconds: float, out: Outcome):
    """Open-loop steps of rising rate until one misses; returns the
    highest met rate, each step's summary, and every request's lateness."""
    steps, best, late = [], 0, []
    rate = SERVE_LADDER_STEP_RPS
    while rate <= SERVE_LADDER_MAX_RPS:
        phase = _open_phase(port, mix, rate, step_seconds, out, offset=rate)
        valid = phase["late_p99_ms"] <= LATE_LIMIT_MS
        growing = phase["backlog"] > 2 + 0.01 * phase["sent"]
        met = valid and phase["p99_ms"] <= LIMIT_MS and not phase["failed"] and not growing
        late.extend(phase["late_ms"])
        steps.append({k: phase[k] for k in
                      ("rate", "sent", "failed", "p50_ms", "p99_ms", "late_p99_ms",
                       "backlog")} | {"valid": valid, "met": met})
        if not met:
            break
        best = rate
        rate += SERVE_LADDER_STEP_RPS
    return best, steps, late


def _serve_pass(cfg, rd, store_path, mix, out, token, detail: bool, trace_path=None):
    def args_for_port(port):
        return _serve_args(store_path, port, token)

    setups = _setup_samples(args_for_port, rd) if trace_path is None else []
    log_name = "serve-traced" if trace_path else "serve"
    proc, port, setup, _ready = _start_serving(args_for_port, rd, log_name, trace_path)
    setups.append(setup)
    share = 0.5 if (detail or trace_path) else 1.0
    if trace_path is None:
        # The server is the bottleneck: it is busy for ~90% of a batch.
        harness.PROBE.follow(proc.pid)
    batches = _closed_batches(port, mix, cfg.seconds * share, out)
    # Stopped before the open-loop phases, whose latency it would disturb.
    harness.PROBE.stop()
    fixed = ladder = None
    if detail or trace_path:
        fixed = _open_phase(port, mix, SERVE_FIXED_RPS, cfg.seconds * 0.5, out)
    if detail:
        ladder = _ladder(port, mix, max(1.0, cfg.seconds / 10.0), out)
    code = harness.interrupt(proc, EXIT_TIMEOUT_S)
    out.check(code == 0, f"serve exited {code}")
    return {"setups": setups, "rss": proc.peak_rss_mb, "batches": batches,
            "fixed": fixed, "ladder": ladder,
            "log": request_log(rd / f"{log_name}.err")}


def serve(cfg: Config, rd: RunDir) -> Outcome:
    out = Outcome()
    token = f"bench-{cfg.seed}"
    store_path, store = _serve_inputs(cfg, rd, out)
    mix = Mix(store, token, cfg.seed, max(SERVE_BATCH, 4 * SERVE_LADDER_MAX_RPS))
    run = _serve_pass(cfg, rd, store_path, mix, out, token, detail=cfg.trace)
    walls = _raw(run["batches"])
    out.e2e = {
        "setup_s": _median(_scaled(run["setups"])),
        "peak_rss_mb": run["rss"],
        "total_s": _median(_scaled(run["batches"])),
    }
    out.info.update(setup_samples_s=_raw(run["setups"]),
                    setup_scaled_s=_scaled(run["setups"]), batch=SERVE_BATCH,
                    batch_walls_s=walls, batch_scaled_s=_scaled(run["batches"]),
                    connections=2)
    if cfg.trace:
        traced = _serve_pass(cfg, rd, store_path, mix, out, token, detail=False,
                             trace_path=rd / "trace.json")
        trace = _load_trace(rd / "trace.json", out)
        if trace is not None:
            out.layers.update(layer_metrics(trace))
        fixed = run["fixed"]
        best, steps, late = run["ladder"]
        out.info["ladder"] = steps
        late = fixed["late_ms"] + late
        out.layers.update(_server_layers(
            run["log"], server_wait_ms(fixed["records"], mix.paths, run["log"])
        ))
        untraced = _median(walls)
        out.layers.update({
            "serve_p50_ms": fixed["p50_ms"],
            "serve_p99_ms": fixed["p99_ms"],
            "serve_max_rps": best,
            "loadgen.late_p99_ms": loadgen.percentile(late, 99),
            "loadgen.sent": fixed["sent"] + sum(s["sent"] for s in steps)
            + SERVE_BATCH * len(run["batches"]),
            "trace.overhead_share": (
                _median(_raw(traced["batches"])) - untraced
            ) / untraced,
        })
    return out
