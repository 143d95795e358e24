"""Fusion-engine performance harness: legacy paths versus columnar kernels.

Times the four rebuilt layers on both generated domains —

* **compile** — ``FusionProblem`` construction (columnar kernel) against the
  per-item Python compile (``LegacyFusionProblem``), cold (dataset caches
  cleared) and warm (columnar view reused);
* **methods** — full fusion runs per registered method on prebuilt problems
  (vectorized argmax / similarity / format kernels vs the Python loops);
* **copy detection** — ``detect_copying`` + ``independence_weights`` rounds
  with cached popcount structures vs per-round CSR rebuilds, plus the cold
  per-problem ``copy_structures`` build;
* **figure9 sweep** — the end-to-end source-prefix sweep through
  ``restrict_sources`` vs per-prefix dataset copies + legacy compiles;
* **parallel** (``--workers N``, N > 1) — the Figure 9 sweep and the
  16-method comparison through the shared-memory solve scheduler, vs the
  same solves in process;
* **service** — one large-corpus snapshot ingested by ``TruthService``
  next to the same methods solved directly (the two stores must be
  equal), plus ``TruthStore`` point-query p50/p99;
* **serving** — the asyncio HTTP front-end under load: concurrent clients
  hammering ``/lookup`` and ``/ensemble`` against a store re-published live
  underneath them, recording serve p50/p99, publish-visible latency, and a
  torn/failed-read count that must stay zero —

and writes the measurements to ``BENCH_fusion.json`` so the perf trajectory
accumulates across PRs.  The gated compile, figure9 and streaming speedups
are ratios of best-of-``--repeat`` timings taken in turn (old path, new
path, old path, ...), so a drift in host speed falls on both sides.  The
sweep also cross-checks that both paths produce identical recall curves
(the selections are equivalent by construction; see
``tests/fusion/test_vectorized_equivalence.py``).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py --scale small
    PYTHONPATH=src python benchmarks/run_bench.py --scale default \
        --output BENCH_fusion.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.copying.detection import (
    detect_copying,
    independence_weights,
    selection_accuracy,
)
from repro.evaluation.ordering import recall_as_sources_added, sources_by_recall
from repro.experiments.context import get_context
from repro.fusion.base import FusionProblem
from repro.fusion.legacy import (
    LegacyFusionProblem,
    legacy_detect_copying,
    legacy_independence_weights,
    legacy_recall_as_sources_added,
)
from repro.fusion.registry import METHOD_NAMES, make_method

#: Methods timed individually on prebuilt problems.
BENCH_METHODS = METHOD_NAMES
#: Methods run at every prefix of the Figure 9 sweep benchmark (a slice of
#: the figure's six; the sweep cost is dominated by per-prefix compilation,
#: which is exactly what this benchmark tracks).
SWEEP_METHODS = ("Vote", "AccuSim")
DETECTION_ROUNDS = 5
#: Methods streamed in the daily-delta scenario — the converging slice of
#: the registry (Invest/PooledInvest/AccuSim oscillate below the default
#: tolerance on these collections, so warm starts cannot shorten them, and
#: AccuCopy's detection cost is tracked by the copy-detection benchmark).
STREAM_METHODS = (
    "Vote", "Hub", "AvgLog", "2-Estimates", "3-Estimates", "Cosine",
    "TruthFinder", "AccuPr", "PopAccu", "AccuFormat",
)
#: Streaming scenario shape: per-day cell churn and number of delta days.
STREAM_DAYS = 6
STREAM_CHURN = 0.003
#: The streaming operating tolerance (both paths): serving selections does
#: not need the last 1e-5 of trust precision; the bench cross-checks that
#: cold selections at this tolerance match the exact engine's.
STREAM_TOLERANCE = 1e-3
#: Methods profiled per kernel by ``--profile`` (one per kernel family).
PROFILE_METHODS = ("Vote", "AccuPr", "PopAccu", "TruthFinder", "AccuSimAttr")


def _best_of(repeat: int, fn: Callable[[], object]) -> float:
    return _best_of_in_turn(repeat, _timed(fn))[0]


def _timed(fn: Callable[[], object]) -> Callable[[], float]:
    """``fn`` as a path for :func:`_best_of_in_turn`: one call, its wall
    seconds."""
    def run() -> float:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started
    return run


def _best_of_in_turn(repeat: int, *paths: Callable[[], float]) -> List[float]:
    """Best of ``repeat`` runs of each path, the paths run in turn.

    Each path returns the seconds it measured.  A speedup is the ratio of
    two bests; run in turn, a slow phase of the host lands on every path,
    so the ratio measures the paths and not the host.
    """
    best = [float("inf")] * len(paths)
    for _ in range(repeat):
        for index, path in enumerate(paths):
            best[index] = min(best[index], path())
    return best


def _clear_dataset_caches(dataset) -> None:
    dataset._columnar = None
    dataset._tolerances = None
    dataset._clusterings = None
    dataset._source_ids = None
    dataset._num_claims = None


def bench_domain(domain: str, scale: str, repeat: int) -> Dict[str, object]:
    collection = get_context(scale).collection(domain)
    snapshot, gold = collection.snapshot, collection.gold

    report: Dict[str, object] = {}

    # ------------------------------------------------------------- compile
    # LegacyFusionProblem bypasses the dataset caches, so it is always a
    # cold, from-the-dicts compile (what the seed paid for each snapshot).
    def cold_compile():
        _clear_dataset_caches(snapshot)
        return FusionProblem(snapshot)

    def build_view_only():
        _clear_dataset_caches(snapshot)
        return snapshot.columnar

    # Cold: first compile of a snapshot (columnar view + tolerances +
    # clustering kernel).  Warm: every later problem compiled from the same
    # snapshot — the per-problem cost sweeps and method comparisons pay.
    # The warm path runs right after the cold one, which leaves the
    # snapshot caches filled.
    legacy_s, cold_s, warm_s = _best_of_in_turn(
        repeat,
        _timed(lambda: LegacyFusionProblem(snapshot)),
        _timed(cold_compile),
        _timed(lambda: FusionProblem(snapshot)),
    )
    view_s = _best_of(repeat, build_view_only)
    report["compile"] = {
        "legacy_s": legacy_s,
        "vectorized_cold_s": cold_s,
        "vectorized_warm_s": warm_s,
        "view_build_s": view_s,  # share of the cold time spent flattening
        "speedup_cold": legacy_s / cold_s,
        "speedup_warm": legacy_s / warm_s,
    }

    legacy_problem = LegacyFusionProblem(snapshot)
    problem = FusionProblem(snapshot)
    report["size"] = {
        "n_sources": problem.n_sources,
        "n_items": problem.n_items,
        "n_claims": problem.n_claims,
        "n_clusters": problem.n_clusters,
    }

    # ------------------------------------------------------------- methods
    methods: Dict[str, Dict[str, float]] = {}
    for name in BENCH_METHODS:
        # Fresh problems per path so the lazy evidence edges are rebuilt by
        # the path under test, not inherited from a warm cache.
        legacy_p = LegacyFusionProblem(snapshot)
        fast_p = FusionProblem(snapshot)
        old_s = _best_of(1, lambda: make_method(name).run(legacy_p))
        new_s = _best_of(1, lambda: make_method(name).run(fast_p))
        methods[name] = {
            "legacy_s": old_s,
            "vectorized_s": new_s,
            "speedup": old_s / new_s,
        }
    report["methods"] = methods

    # ------------------------------------------------------ copy detection
    selected = problem.argmax_per_item(
        problem.cluster_support.astype(np.float64)
    )
    accuracy = selection_accuracy(problem, selected)

    def detection_rounds(detect, weights, target):
        for _ in range(DETECTION_ROUNDS):
            detection = detect(target, selected, accuracy)
            weights(target, detection.probability)

    old_s = _best_of(
        repeat,
        lambda: detection_rounds(
            legacy_detect_copying, legacy_independence_weights, legacy_problem
        ),
    )

    def cold_copy_structures():
        problem._copy = None
        return problem.copy_structures

    # Cold: the per-problem build (bitsets, same/shared counts) every fresh
    # problem pays on its first detection.  The rounds then run warm, as
    # AccuCopy's later rounds do.
    build_s = _best_of(repeat, cold_copy_structures)
    new_s = _best_of(
        repeat,
        lambda: detection_rounds(detect_copying, independence_weights, problem),
    )
    report["copy_detection"] = {
        "rounds": DETECTION_ROUNDS,
        "legacy_s": old_s,
        "vectorized_s": new_s,
        "structures_build_s": build_s,
        "speedup": old_s / new_s,
    }

    # ------------------------------------------------------- figure 9 sweep
    order = sources_by_recall(snapshot, gold)
    n = len(order)
    prefix_sizes = sorted(
        set(list(range(1, min(12, n) + 1)) + list(range(12, n + 1, 4)) + [n])
    )
    curves = {}

    def legacy_sweep():
        curves["legacy"] = legacy_recall_as_sources_added(
            snapshot, gold, SWEEP_METHODS, order, prefix_sizes
        )

    def new_sweep():
        curves["new"] = recall_as_sources_added(
            snapshot, gold, SWEEP_METHODS, ordering=order,
            prefix_sizes=prefix_sizes, problem=problem,
        )

    old_s, new_s = _best_of_in_turn(
        repeat, _timed(legacy_sweep), _timed(new_sweep)
    )
    curves_equal = all(
        curves["legacy"][name] == curves["new"][name].recalls
        for name in SWEEP_METHODS
    )
    report["figure9_sweep"] = {
        "methods": list(SWEEP_METHODS),
        "prefix_sizes": len(prefix_sizes),
        "legacy_s": old_s,
        "vectorized_s": new_s,
        "speedup": old_s / new_s,
        "curves_equal": curves_equal,
    }
    return report


def bench_streaming(domain: str, scale: str, repeat: int) -> Dict[str, object]:
    """Daily streaming: cold recompile+rerun vs a warm delta stream.

    A low-churn stream (``STREAM_CHURN`` of cells touched per day) is
    derived from the collection's first snapshot.  The *cold* path is what
    the seed did for Table 9: recompile the day's ``FusionProblem`` from
    its claim dicts and run every method to convergence from uniform
    priors.  The *warm* path feeds the explicit deltas to a
    :class:`~repro.streaming.StreamRunner`: one shared delta compilation
    per day plus warm-started solves.  Both run at ``STREAM_TOLERANCE``;
    per-day selections of a cold-started runner are also checked against
    the cold path's (``selections_equal`` — the delta-compilation
    equivalence).  The two paths run in turn, ``repeat`` passes each,
    the warm stream from scratch every time; ``cold_per_day_s`` and
    ``warm_per_day_s`` (and the speedup) are the best pass's mean.
    """
    from repro.datagen import perturbed_claim_stream
    from repro.streaming import StreamRunner

    collection = get_context(scale).collection(domain)
    base = collection.series.snapshots[0]
    stream = perturbed_claim_stream(
        base, STREAM_DAYS, churn=STREAM_CHURN, seed=17
    )
    method_kwargs = {
        name: {} if name == "Vote" else {"tolerance": STREAM_TOLERANCE}
        for name in STREAM_METHODS
    }

    # ---- cold: per-day recompile from the claim dicts + cold solves
    cold: Dict[str, list] = {}

    def cold_pass() -> float:
        times, cold["rounds"], cold["selections"] = [], [], []
        for snapshot in stream.snapshots:
            _clear_dataset_caches(snapshot)
            started = time.perf_counter()
            problem = FusionProblem(snapshot)
            day_sel, rounds = {}, 0
            for name in STREAM_METHODS:
                result = make_method(name, **method_kwargs[name]).run(problem)
                day_sel[name] = result.selected
                rounds += result.rounds
            times.append(time.perf_counter() - started)
            cold["rounds"].append(rounds)
            cold["selections"].append(day_sel)
        return float(np.mean(times))

    # ---- warm: shared delta compilation + warm-started solves
    warm: Dict[str, object] = {"first_day_s": float("inf")}

    def warm_pass() -> float:
        runner = StreamRunner(STREAM_METHODS, method_kwargs, warm_start=True)
        started = time.perf_counter()
        runner.push(stream.base)
        warm["first_day_s"] = min(
            warm["first_day_s"], time.perf_counter() - started
        )
        times, warm["rounds"] = [], []
        for delta in stream.deltas:
            started = time.perf_counter()
            step = runner.push_delta(delta)
            warm["rounds"].append(
                sum(result.rounds for result in step.results.values())
            )
            times.append(time.perf_counter() - started)
        return float(np.mean(times))

    cold_s, warm_s = _best_of_in_turn(repeat, cold_pass, warm_pass)

    # ---- equivalence: a cold-started runner == from-scratch per day
    exact = StreamRunner(STREAM_METHODS, method_kwargs, warm_start=False)
    exact.push(stream.base)
    selections_equal = True
    for delta, day_sel in zip(stream.deltas, cold["selections"]):
        results = exact.push_delta(delta).results
        if any(results[name].selected != day_sel[name] for name in STREAM_METHODS):
            selections_equal = False

    return {
        "methods": list(STREAM_METHODS),
        "delta_days": STREAM_DAYS,
        "churn": STREAM_CHURN,
        "tolerance": STREAM_TOLERANCE,
        "cold_per_day_s": cold_s,
        "warm_per_day_s": warm_s,
        "speedup": cold_s / warm_s,
        "cold_rounds_per_day": float(np.mean(cold["rounds"])),
        "warm_rounds_per_day": float(np.mean(warm["rounds"])),
        "first_day_ingest_s": warm["first_day_s"],
        "selections_equal": selections_equal,
    }


def bench_parallel(domain: str, scale: str, workers: int) -> Dict[str, object]:
    """Parallel scenario: the Figure 9 sweep and the 16-method comparison.

    The restriction sweep in process versus fanned out over ``workers``
    shared-memory workers, plus the 16-method comparison serial versus
    scheduled.  Cross-checks that both configurations produce identical
    curves, and identical whole results — selections, trust, attribute
    trust, rounds and convergence — for the 16 methods, whose results the
    scheduler packages in the parent from the workers' raw solves.
    """
    from repro.parallel import SolveScheduler, solve_methods

    collection = get_context(scale).collection(domain)
    snapshot, gold = collection.snapshot, collection.gold
    problem = FusionProblem(snapshot)
    order = sources_by_recall(snapshot, gold)
    n = len(order)
    prefix_sizes = sorted(
        set(list(range(1, min(12, n) + 1)) + list(range(12, n + 1, 4)) + [n])
    )

    def sweep(**kwargs):
        started = time.perf_counter()
        curves = recall_as_sources_added(
            snapshot, gold, SWEEP_METHODS, ordering=order,
            prefix_sizes=prefix_sizes, problem=problem, **kwargs,
        )
        return time.perf_counter() - started, curves

    serial_s, serial_curves = sweep()

    started = time.perf_counter()
    serial16 = {name: make_method(name).run(problem) for name in METHOD_NAMES}
    serial16_s = time.perf_counter() - started

    with SolveScheduler(workers=workers) as scheduler:
        # Warm the pool and the shared-memory export outside the timings
        # (the scenario measures steady-state scheduling, not fork latency).
        scheduler.register(None, problem, gold=gold)
        solve_methods(problem, ["Vote"], scheduler=scheduler)

        parallel_s, parallel_curves = sweep(scheduler=scheduler)
        started = time.perf_counter()
        outcomes = solve_methods(
            problem, list(METHOD_NAMES), scheduler=scheduler
        )
        parallel16_s = time.perf_counter() - started

    curves_equal = all(
        serial_curves[name].recalls == parallel_curves[name].recalls
        for name in SWEEP_METHODS
    )
    fields = ("selected", "trust", "attr_trust", "rounds", "converged")
    results_equal = all(
        getattr(outcome.result, name)
        == getattr(serial16[outcome.method], name)
        for outcome in outcomes
        for name in fields
    )
    return {
        "workers": workers,
        "figure9_sweep": {
            "methods": list(SWEEP_METHODS),
            "prefix_sizes": len(prefix_sizes),
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "parallel_speedup": serial_s / parallel_s,
            "curves_equal": curves_equal,
        },
        "methods16": {
            "serial_s": serial16_s,
            "parallel_s": parallel16_s,
            "speedup": serial16_s / parallel16_s,
            "results_equal": results_equal,
        },
    }


#: Truth-service scenario shape: methods solved and the number of point
#: queries timed against the published TruthStore.
SERVICE_METHODS = ("Vote", "AccuSim", "TruthFinder")
SERVICE_QUERIES = 2000
#: Large-corpus object counts per bench scale (wide, shallow snapshots).
SERVICE_OBJECTS = {"tiny": 120, "small": 400, "default": 1500, "paper": 3000}


def _percentiles(samples_s: Sequence[float]) -> Dict[str, float]:
    arr = np.asarray(samples_s, dtype=np.float64) * 1e6
    return {
        "p50_us": float(np.percentile(arr, 50)),
        "p99_us": float(np.percentile(arr, 99)),
        "mean_us": float(arr.mean()),
    }


def _profiled_solve(name: str, problem: FusionProblem):
    """One fixed-point solve through ``run_fixed_point`` with kernel timing.

    Bypasses ``FusionMethod.run`` so a :class:`KernelProfiler` can ride
    along; returns ``(rounds, seconds, kernel_report)``.
    """
    from repro.fusion.spec import KernelProfiler, run_fixed_point

    method = make_method(name)
    state = method._initial_state(problem, None)
    profiler = KernelProfiler()
    started = time.perf_counter()
    _selected, rounds, _converged = run_fixed_point(
        method, problem, state, profiler=profiler
    )
    return rounds, time.perf_counter() - started, profiler.report()


def bench_engines(domain: str, scale: str, repeat: int) -> Dict[str, object]:
    """Per-method solve timing with a per-kernel breakdown.

    Every registered method solves on a prebuilt problem through the shared
    fixed point with a :class:`KernelProfiler` attached, so the payload
    records where each round's time goes: votes / argmax / trust_update /
    convergence, best of ``repeat``.
    """
    collection = get_context(scale).collection(domain)
    problem = FusionProblem(collection.snapshot)
    per_method: Dict[str, object] = {}
    for name in BENCH_METHODS:
        _profiled_solve(name, problem)  # warm the lazy edges untimed
        best, best_kernels = float("inf"), {}
        for _ in range(repeat):
            rounds, elapsed, kernels = _profiled_solve(name, problem)
            if elapsed < best:
                best, best_kernels = elapsed, kernels
        per_method[name] = {
            "rounds": rounds,
            "numpy_s": best,
            "kernels": {"numpy": best_kernels},
        }
    return {"methods": per_method}


def bench_profile(scale: str, output: str) -> Dict[str, object]:
    """Dump cProfile stats for the fixed-point hot loop (``--profile``).

    Also returns the structured per-kernel breakdown (method -> kernel ->
    seconds/calls) that ``main`` embeds into the JSON payload as
    ``kernels``, so the hot-loop attribution accumulates across PRs
    alongside the timings instead of living only in the pstats dump.
    """
    import cProfile
    import pstats

    collection = get_context(scale).collection("stock")
    problem = FusionProblem(collection.snapshot)
    for name in PROFILE_METHODS:
        make_method(name).run(problem)  # warm the lazy edges outside profiling
    profiler = cProfile.Profile()
    profiler.enable()
    for name in PROFILE_METHODS:
        make_method(name).run(problem)
    profiler.disable()
    profiler.dump_stats(output)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print(f"[bench] fixed-point profile -> {output}")
    stats.print_stats("repro|reduceat|bincount|take", 15)
    kernels: Dict[str, object] = {}
    for name in PROFILE_METHODS:
        *_, report = _profiled_solve(name, problem)
        kernels[name] = report
    return kernels


def bench_service(scale: str, repeat: int) -> Dict[str, object]:
    """One snapshot served as a one-day stream + the truth-serving read path.

    A wide large-corpus Stock snapshot (``StockConfig.large_corpus``) is
    ingested by ``TruthService`` — the path ``cli serve FILE`` runs —
    best-of-``repeat``, next to the same methods run directly on
    ``FusionProblem(snapshot)``.  ``exact_equal`` checks that the service's
    store equals the direct solve's, truths and trust ``==``.  Point lookups
    and ensemble reads are timed against the store for query p50/p99.
    """
    from repro.datagen import StockConfig, generate_stock_collection
    from repro.serving import TruthService, TruthStore

    snapshot = generate_stock_collection(
        StockConfig.large_corpus(n_objects=SERVICE_OBJECTS[scale])
    ).snapshot
    methods = list(SERVICE_METHODS)

    def solve_direct():
        problem = FusionProblem(snapshot)
        return problem, {name: make_method(name).run(problem) for name in methods}

    direct_s = _best_of(repeat, solve_direct)
    problem, direct = solve_direct()
    reference = TruthStore()
    reference.publish(snapshot.day, direct)

    def ingest():
        service = TruthService(methods)
        service.ingest(snapshot)
        return service.store

    service_s = _best_of(repeat, ingest)
    store = ingest()
    ours, theirs = store.snapshot(), reference.snapshot()

    # ------------------------------------------------------------- queries
    rng = np.random.default_rng(23)
    items = list(problem.items)
    picks = rng.choice(len(items), size=min(SERVICE_QUERIES, len(items)))
    lookup_times, ensemble_times = [], []
    for index in picks:
        item = items[int(index)]
        q0 = time.perf_counter()
        answer = store.lookup(item.object_id, item.attribute, snapshot=ours)
        lookup_times.append(time.perf_counter() - q0)
        assert answer is not None
        q0 = time.perf_counter()
        store.ensemble(item.object_id, item.attribute, snapshot=ours)
        ensemble_times.append(time.perf_counter() - q0)

    return {
        "scale": scale,
        "repeat": repeat,
        "methods": methods,
        "n_objects": SERVICE_OBJECTS[scale],
        "n_items": problem.n_items,
        "n_claims": problem.n_claims,
        "direct_solve_s": direct_s,
        "service_s": service_s,
        "exact_equal": (ours.truths, ours.trust) == (theirs.truths, theirs.trust),
        "queries": {
            "n": len(lookup_times),
            "lookup": _percentiles(lookup_times),
            "ensemble": _percentiles(ensemble_times),
        },
    }


#: Serving scenario shape: concurrent HTTP clients, live re-publishes, and
#: the pause between publishes (the CI-scale stand-in for the "store
#: re-published every few hundred ms" production cadence).
SERVING_CLIENTS = 8
SERVING_PUBLISHES = 60
SERVING_PUBLISH_INTERVAL_S = 0.004
SERVING_ITEMS = {"tiny": 64, "small": 192, "default": 512, "paper": 1024}


def bench_serving(scale: str) -> Dict[str, object]:
    """The asyncio HTTP front-end under live re-publishes.

    ``SERVING_CLIENTS`` keep-alive HTTP clients hammer ``/lookup`` and
    ``/ensemble`` against a :class:`TruthServer` while the store is
    re-published ``SERVING_PUBLISHES`` times underneath them.  Every
    published value and trust encodes its version (``value ==
    float(version)``), so a torn read — any response mixing versions — is
    detectable from the payload alone; per-connection version rewinds are
    counted the same way.  Records serve p50/p99 per endpoint, the
    publish-visible latency (publish call start to the first response
    carrying the new version), and the torn/failed counters the CI gate
    keys on (``serving_reads_equal``).
    """
    import http.client
    import threading

    from repro.core.records import DataItem
    from repro.fusion.base import FusionResult
    from repro.server import run_in_thread
    from repro.serving import TruthStore

    n_items = SERVING_ITEMS[scale]
    items = [DataItem(f"o{i}", "price") for i in range(n_items)]

    def results_for(version: int):
        value = float(version)
        return {
            name: FusionResult(
                method=name,
                selected={item: value for item in items},
                trust={"s1": value},
            )
            for name in ("Vote", "AccuSim")
        }

    store = TruthStore(monotonic_days=True)
    store.publish("day0001", results_for(1))
    stop = threading.Event()

    def client(index: int, out: Dict[str, object]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        last_version, pick = 0, index
        try:
            while not stop.is_set():
                item = items[pick % n_items]
                pick += 7  # deterministic spread over the item space
                endpoint = "ensemble" if pick % 3 == 0 else "lookup"
                started = time.perf_counter()
                conn.request(
                    "GET",
                    f"/{endpoint}?object={item.object_id}"
                    f"&attribute={item.attribute}",
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                elapsed = time.perf_counter() - started
                if response.status != 200:
                    out["failed"] += 1
                    continue
                out[endpoint].append(elapsed)
                if (
                    body["value"] != float(body["version"])
                    or body["version"] < last_version
                ):
                    out["torn"] += 1
                last_version = body["version"]
        except OSError:
            if not stop.is_set():
                out["failed"] += 1
        finally:
            conn.close()

    outs = [
        {"lookup": [], "ensemble": [], "torn": 0, "failed": 0}
        for _ in range(SERVING_CLIENTS)
    ]
    visible_times = []
    with run_in_thread(store) as handle:
        port = handle.port
        threads = [
            threading.Thread(target=client, args=(index, out))
            for index, out in enumerate(outs)
        ]
        for thread in threads:
            thread.start()
        probe = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for version in range(2, SERVING_PUBLISHES + 2):
                results = results_for(version)
                started = time.perf_counter()
                store.publish(f"day{version:04d}", results)
                while True:  # first response carrying the new version
                    probe.request("GET", "/health")
                    seen = json.loads(probe.getresponse().read())["version"]
                    if seen >= version:
                        break
                visible_times.append(time.perf_counter() - started)
                time.sleep(SERVING_PUBLISH_INTERVAL_S)
        finally:
            probe.close()
        stop.set()
        for thread in threads:
            thread.join(30)
    lookup_times = [t for out in outs for t in out["lookup"]]
    ensemble_times = [t for out in outs for t in out["ensemble"]]
    torn = sum(out["torn"] for out in outs)
    failed = sum(out["failed"] for out in outs)
    return {
        "scale": scale,
        "clients": SERVING_CLIENTS,
        "publishes": SERVING_PUBLISHES,
        "publish_interval_s": SERVING_PUBLISH_INTERVAL_S,
        "n_items": n_items,
        "requests": len(lookup_times) + len(ensemble_times),
        "lookup": _percentiles(lookup_times),
        "ensemble": _percentiles(ensemble_times),
        "publish_visible": _percentiles(visible_times),
        "torn_reads": torn,
        "failed_reads": failed,
        "reads_ok": torn == 0 and failed == 0,
        "final_version": store.version,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "default", "paper"))
    parser.add_argument("--output", default="BENCH_fusion.json")
    parser.add_argument("--repeat", type=int, default=3,
                        help="best-of-N for the compile/detection, "
                             "figure9, streaming and service timings")
    parser.add_argument("--domains", nargs="+", default=["stock", "flight"])
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the parallel scenario "
                             "(1 skips it; the payload records the value)")
    parser.add_argument("--profile", action="store_true",
                        help="dump cProfile stats for the fixed-point hot "
                             "loop to BENCH_fixed_point.pstats and embed the "
                             "per-kernel breakdown into the JSON payload")
    args = parser.parse_args(argv)

    profile_kernels = None
    if args.profile:
        profile_kernels = bench_profile(args.scale, "BENCH_fixed_point.pstats")

    domains: Dict[str, object] = {}
    for domain in args.domains:
        print(f"[bench] {domain} @ {args.scale} ...", flush=True)
        domains[domain] = bench_domain(domain, args.scale, args.repeat)
        domains[domain]["streaming"] = bench_streaming(
            domain, args.scale, args.repeat
        )
        domains[domain]["engines"] = bench_engines(
            domain, args.scale, args.repeat
        )
        if args.workers > 1:
            domains[domain]["parallel"] = bench_parallel(
                domain, args.scale, args.workers
            )
        sweep = domains[domain]["figure9_sweep"]
        compile_ = domains[domain]["compile"]
        streaming = domains[domain]["streaming"]
        copying = domains[domain]["copy_detection"]
        print(
            f"[bench] {domain}: compile x{compile_['speedup_warm']:.1f} warm"
            f" / x{compile_['speedup_cold']:.1f} cold,"
            f" copy structures {copying['structures_build_s'] * 1e3:.1f}ms"
            f" cold, detection x{copying['speedup']:.1f},"
            f" figure9 x{sweep['speedup']:.1f}"
            f" (curves equal: {sweep['curves_equal']}),"
            f" streaming x{streaming['speedup']:.1f}"
            f" (selections equal: {streaming['selections_equal']})",
            flush=True,
        )
        if "parallel" in domains[domain]:
            par = domains[domain]["parallel"]
            print(
                f"[bench] {domain}: parallel@{args.workers}w sweep"
                f" x{par['figure9_sweep']['parallel_speedup']:.1f}"
                f" (curves equal: {par['figure9_sweep']['curves_equal']}),"
                f" 16 methods x{par['methods16']['speedup']:.1f}"
                f" (results equal: {par['methods16']['results_equal']})",
                flush=True,
            )

    print(f"[bench] service @ {args.scale} ...", flush=True)
    service = bench_service(args.scale, args.repeat)
    print(
        f"[bench] service: ingest {service['service_s']:.2f}s,"
        f" direct solve {service['direct_solve_s']:.2f}s"
        f" (equal: {service['exact_equal']}),"
        f" query p99 {service['queries']['lookup']['p99_us']:.0f}us",
        flush=True,
    )

    print(f"[bench] serving @ {args.scale} ...", flush=True)
    serving = bench_serving(args.scale)
    print(
        f"[bench] serving: {serving['clients']} clients x"
        f" {serving['publishes']} live publishes,"
        f" {serving['requests']} reads,"
        f" lookup p99 {serving['lookup']['p99_us'] / 1000:.2f}ms /"
        f" ensemble p99 {serving['ensemble']['p99_us'] / 1000:.2f}ms,"
        f" publish visible p99"
        f" {serving['publish_visible']['p99_us'] / 1000:.2f}ms"
        f" (torn: {serving['torn_reads']},"
        f" failed: {serving['failed_reads']})",
        flush=True,
    )

    sweeps = [domains[d]["figure9_sweep"]["speedup"] for d in domains]
    compiles = [domains[d]["compile"]["speedup_warm"] for d in domains]
    summary = {
        "figure9_speedup_min": min(sweeps),
        "compile_speedup_warm_min": min(compiles),
        "compile_speedup_cold_min": min(
            domains[d]["compile"]["speedup_cold"] for d in domains
        ),
        "streaming_speedup_min": min(
            domains[d]["streaming"]["speedup"] for d in domains
        ),
        # Absolute best-of-N seconds, worst domain; recorded, not gated.
        "figure9_sweep_s_max": max(
            domains[d]["figure9_sweep"]["vectorized_s"] for d in domains
        ),
        "compile_warm_s_max": max(
            domains[d]["compile"]["vectorized_warm_s"] for d in domains
        ),
        "streaming_warm_per_day_s_max": max(
            domains[d]["streaming"]["warm_per_day_s"] for d in domains
        ),
        "copy_structures_build_s_max": max(
            domains[d]["copy_detection"]["structures_build_s"] for d in domains
        ),
    }
    if args.workers > 1:
        summary["parallel_sweep_speedup_min"] = min(
            domains[d]["parallel"]["figure9_sweep"]["parallel_speedup"]
            for d in domains
        )
        summary["parallel_methods16_speedup_min"] = min(
            domains[d]["parallel"]["methods16"]["speedup"] for d in domains
        )
    summary["service_exact_equal"] = service["exact_equal"]
    summary["service_query_p99_us"] = service["queries"]["lookup"]["p99_us"]
    summary["serving_reads_equal"] = serving["reads_ok"]
    summary["serving_lookup_p99_ms"] = serving["lookup"]["p99_us"] / 1000
    summary["serving_ensemble_p99_ms"] = serving["ensemble"]["p99_us"] / 1000
    summary["serving_publish_visible_p99_ms"] = (
        serving["publish_visible"]["p99_us"] / 1000
    )
    payload = {
        "scale": args.scale,
        "workers": args.workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
        "domains": domains,
        "service": service,
        "serving": serving,
        "summary": summary,
    }
    if profile_kernels is not None:
        payload["kernels"] = profile_kernels
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"[bench] wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
