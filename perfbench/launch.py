"""Traced launcher: run a program entry point with every layer's public
functions wrapped in timing spans.

Usage::

    python3 perfbench/launch.py TRACE.json repro.cli serve DIR --listen ...
    python3 perfbench/launch.py TRACE.json repro.experiments all --scale small

The launcher imports the program's modules, replaces each function named
in :data:`TARGETS` with a wrapper everywhere a caller looks it up (the
defining module, every ``repro.*`` module that imported it by name, the
class for methods, the experiment table for artifacts), then runs the
entry point as ``__main__``.  Nothing under ``src/`` changes.

Each wrapper records a span (name, layer, start, end, parent span, and the
current request or day id) plus its self time (duration minus child spans)
and call counts; the hottest leaf functions (:data:`LEAVES`) only add
their time and call count.  Spans stay in memory and are written to ``TRACE.json``
at interpreter exit together with per-layer totals and counters.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import itertools
import json
import os
import runpy
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Span records kept per function name; calls past the cap still count
#: toward self time and call totals.
SPAN_CAP_PER_NAME = 20000

_perf = time.perf_counter
_ids = itertools.count(1)
_request_ids = itertools.count(1)
_states: List["_ThreadState"] = []
_states_lock = threading.Lock()


class _ThreadState:
    """Per-thread span stack and aggregates (merged at exit)."""

    def __init__(self):
        self.stack: List[list] = []  # frames: [span_id, child_seconds]
        self.leaves: Dict[tuple, List[float]] = {}  # (layer, name) -> [self, calls]
        self.tag: Optional[str] = None
        self.layer_depth: Dict[str, int] = {}
        self.layers: Dict[str, List[float]] = {}  # layer -> [self, incl, calls]
        self.names: Dict[str, List[float]] = {}  # name -> [self, calls]
        self.counters: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self.recorded: Dict[str, int] = {}


_local = threading.local()


def _state() -> _ThreadState:
    state = getattr(_local, "state", None)
    if state is None:
        state = _ThreadState()
        _local.state = state
        with _states_lock:
            _states.append(state)
    return state


def count(name: str, amount: float = 1) -> None:
    counters = _state().counters
    counters[name] = counters.get(name, 0) + amount


def _enter(state: _ThreadState, layer: str) -> tuple:
    parent = state.stack[-1] if state.stack else None
    frame = [next(_ids), 0.0]
    state.stack.append(frame)
    depth = state.layer_depth.get(layer, 0)
    state.layer_depth[layer] = depth + 1
    return parent, frame, depth


def _exit(state, layer, name, parent, frame, depth, t0, t1) -> None:
    state.stack.pop()
    state.layer_depth[layer] = depth
    duration = t1 - t0
    own = duration - frame[1]
    totals = state.layers.get(layer)
    if totals is None:
        totals = state.layers[layer] = [0.0, 0.0, 0]
    totals[0] += own
    if depth == 0:
        totals[1] += duration
    totals[2] += 1
    per_name = state.names.get(name)
    if per_name is None:
        per_name = state.names[name] = [0.0, 0]
    per_name[0] += own
    per_name[1] += 1
    if parent is not None:
        parent[1] += duration
    recorded = state.recorded.get(name, 0)
    if recorded < SPAN_CAP_PER_NAME:
        state.recorded[name] = recorded + 1
        state.spans.append((
            frame[0], parent[0] if parent is not None else 0,
            name, layer, t0, t1, state.tag,
        ))


def traced(fn: Callable, layer: str, name: str,
           after: Optional[Callable] = None, tag: Optional[Callable] = None,
           leaf: bool = False):
    """Wrap ``fn`` in a span of ``layer``.

    ``after(args, kwargs, result)`` records counters once the call
    returns; ``tag(args, kwargs)`` names the request/day/artifact id that
    this span and everything below it carry.  A ``leaf`` function (one
    that calls no other traced function and runs too often for span
    records) only adds its time and call count.
    """
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            state = _state()
            if not state.stack:
                # A root span on the event loop is one HTTP request.
                state.tag = f"request-{next(_request_ids)}"
            parent, frame, depth = _enter(state, layer)
            t0 = _perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                _exit(state, layer, name, parent, frame, depth, t0, _perf())

        return async_wrapper

    if leaf:
        key = (layer, name)

        @functools.wraps(fn)
        def leaf_wrapper(*args, **kwargs):
            state = _state()
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _perf() - t0
                if state.stack:
                    state.stack[-1][1] += duration
                totals = state.leaves.get(key)
                if totals is None:
                    totals = state.leaves[key] = [0.0, 0]
                totals[0] += duration
                totals[1] += 1

        return leaf_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _state()
        if tag is not None:
            state.tag = tag(args, kwargs)
        parent, frame, depth = _enter(state, layer)
        t0 = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            _exit(state, layer, name, parent, frame, depth, t0, _perf())
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


# ---------------------------------------------------------------- counters
def _after_fixed_point(args, kwargs, result) -> None:
    _selected, rounds, converged = result
    count("fusion.fixed_point.rounds", rounds)
    count("fusion.fixed_point.converged", 1 if converged else 0)


def _after_read_csv(args, kwargs, dataset) -> None:
    path = args[0] if args else kwargs["path"]
    count("io.rows", dataset.num_claims)
    count("io.bytes", os.path.getsize(path))


def _after_stream_step(args, kwargs, step) -> None:
    stats = step.stats
    count("core.delta.dirty_items", stats.n_dirty_items)
    count("core.delta.active_items", stats.n_active_items)
    count("core.delta.full_compiles", 1 if stats.full_compile else 0)


def _after_save(args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    count("serving.save_bytes", os.path.getsize(path))


def _after_sweep_solve(args, kwargs, outcomes) -> None:
    count("fusion.batch.jobs", len(outcomes))


def _after_scheduler_run(args, kwargs, outcomes) -> None:
    count("parallel.jobs", len(outcomes))


def _day_tag(args, kwargs) -> str:
    path = args[0] if args else kwargs["path"]
    return os.path.splitext(os.path.basename(os.fspath(path)))[0]


#: (module, qualified name, layer, after-hook, tag-hook).  Layer names are
#: the module names the per-layer metrics use (see perfbench/README.md).
TARGETS = [
    ("repro.datagen.generator", "generate_snapshot", "datagen", None, None),
    ("repro.datagen.generator", "generate_series", "datagen", None, None),
    ("repro.datagen.stock", "generate_stock_collection", "datagen", None, None),
    ("repro.datagen.flight", "generate_flight_collection", "datagen", None, None),
    ("repro.fusion.base", "FusionProblem.__init__", "fusion.compile", None, None),
    ("repro.fusion.base", "FusionProblem._init_from", "fusion.compile", None, None),
    ("repro.fusion.base", "FusionProblem.from_compiled", "fusion.compile", None, None),
    ("repro.fusion.base", "FusionProblem.restrict_sources", "fusion.compile", None, None),
    ("repro.fusion.spec", "run_fixed_point", "fusion.fixed_point",
     _after_fixed_point, None),
    ("repro.copying.detection", "detect_copying", "copying", None, None),
    ("repro.fusion.batch", "RestrictionSweep.__init__", "fusion.batch", None, None),
    ("repro.fusion.batch", "RestrictionSweep.solve", "fusion.batch",
     _after_sweep_solve, None),
    ("repro.fusion.batch", "GoldScorer.score", "fusion.batch", None, None),
    ("repro.parallel", "SolveScheduler.run", "parallel", _after_scheduler_run, None),
    ("repro.parallel", "solve_methods", "parallel", None, None),
    ("repro.parallel", "solve_sweep", "parallel", None, None),
    ("repro.parallel", "_export_problem", "parallel.export", None, None),
    ("repro.parallel", "_export_view", "parallel.export", None, None),
    ("repro.core.gold", "GoldStandard.is_correct", "core.gold", None, None),
    ("repro.core.gold", "build_gold_standard", "core.gold", None, None),
    ("repro.core.gold", "accuracy_of_source", "core.gold", None, None),
    ("repro.core.gold", "coverage_of_source", "core.gold", None, None),
    ("repro.core.gold", "recall_of_source", "core.gold", None, None),
    ("repro.io", "read_claims_csv", "io", _after_read_csv, _day_tag),
    ("repro.core.delta", "SeriesCompiler.ingest", "core.delta", None, None),
    ("repro.core.delta", "SeriesCompiler.apply_delta", "core.delta", None, None),
    ("repro.core.delta", "DayCompilation.problem", "core.delta", None, None),
    ("repro.streaming", "StreamRunner.push", "streaming", _after_stream_step, None),
    ("repro.streaming", "StreamRunner.push_delta", "streaming",
     _after_stream_step, None),
    ("repro.serving", "TruthStore.publish", "serving.publish", None, None),
    ("repro.serving", "TruthStore.save", "serving.save", _after_save, None),
    ("repro.serving", "TruthStore.lookup", "serving.read", None, None),
    ("repro.serving", "TruthStore.ensemble", "serving.read", None, None),
    ("repro.serving", "TruthStore.trust", "serving.read", None, None),
    ("repro.server", "TruthServer._dispatch", "server", None, None),
]

#: Hot leaves: ~1.3M scalar gold checks per reproduction, and the store
#: reads behind every HTTP request.
LEAVES = frozenset({
    "GoldStandard.is_correct", "TruthStore.lookup", "TruthStore.ensemble",
    "TruthStore.trust",
})

#: Every top-level function defined in these packages is one layer.
LAYER_PACKAGES = {
    "repro.evaluation": (
        "compare", "efficiency", "errors", "metrics", "ordering",
        "selection", "timeseries",
    ),
    "repro.profiling": (
        "accuracy", "consistency", "copying_stats", "coverage",
        "dominance", "reasons", "redundancy",
    ),
}

#: Modules imported up front so every target exists before patching.
PRELOAD = (
    "repro.cli", "repro.experiments.runner", "repro.server", "repro.serving",
    "repro.streaming", "repro.parallel", "repro.fusion.batch",
    "repro.datagen.stock", "repro.datagen.flight", "repro.io",
)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro.*`` module global that names ``original`` at
    ``replacement`` (callers that did ``from x import f``)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _install(module_name: str, qualname: str, layer: str, after, tag) -> None:
    module = importlib.import_module(module_name)
    leaf = qualname in LEAVES
    if "." not in qualname:
        original = getattr(module, qualname)
        _rebind(original, traced(original, layer, qualname, after, tag, leaf))
        return
    class_name, attr = qualname.split(".")
    cls = getattr(module, class_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(
            traced(raw.__func__, layer, qualname, after, tag, leaf)
        ))
    else:
        setattr(cls, attr, traced(raw, layer, qualname, after, tag, leaf))


def _install_columnar() -> None:
    """``Dataset.columnar`` is a cached property: only misses (view
    builds) become ``core.columnar`` spans."""
    from repro.core.dataset import Dataset

    getter = Dataset.__dict__["columnar"].fget
    build = traced(getter, "core.columnar", "Dataset.columnar", None, None)

    def columnar(self):
        cached = self._columnar
        return cached if cached is not None else build(self)

    Dataset.columnar = property(columnar, doc=getter.__doc__)


def _install_middleware() -> None:
    import repro.middleware as middleware

    for factory_name in ("request_logging", "token_auth"):
        factory = getattr(middleware, factory_name)

        def traced_factory(*args, _factory=factory, _name=factory_name, **kwargs):
            inner = _factory(*args, **kwargs)

            def traced_middleware(handler):
                return traced(inner(handler), "middleware", _name)

            return traced_middleware

        _rebind(factory, functools.wraps(factory)(traced_factory))


def _install_experiments() -> None:
    from repro.experiments import runner

    for key, (run, render) in list(runner.EXPERIMENTS.items()):
        layer = f"experiments.{key}"

        def artifact_tag(args, kwargs, _key=key):
            return _key

        runner.EXPERIMENTS[key] = (
            traced(run, layer, f"{key}.run", None, artifact_tag),
            traced(render, layer, f"{key}.render", None, artifact_tag),
        )


def _install_packages() -> None:
    for package, modules in LAYER_PACKAGES.items():
        layer = package.split(".", 1)[1]
        for short in modules:
            module = importlib.import_module(f"{package}.{short}")
            for name, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    _rebind(value, traced(value, layer, f"{short}.{name}"))


def install() -> None:
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for target in TARGETS:
        _install(*target)
    _install_columnar()
    _install_middleware()
    _install_experiments()
    _install_packages()


def _add(table: dict, key: str, own: float, calls: int, incl: float = 0.0) -> None:
    entry = table.setdefault(key, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
    entry["self_s"] += own
    entry["incl_s"] += incl
    entry["calls"] += calls


def snapshot() -> dict:
    """Merge every thread's aggregates into one JSON-ready payload."""
    layers: Dict[str, Dict[str, float]] = {}
    names: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    spans: List[tuple] = []
    with _states_lock:
        states = list(_states)
    for state in states:
        for layer, (own, incl, calls) in state.layers.items():
            _add(layers, layer, own, calls, incl)
        for name, (own, calls) in state.names.items():
            _add(names, name, own, calls)
        for (layer, name), (own, calls) in state.leaves.items():
            _add(layers, layer, own, calls)
            _add(names, name, own, calls)
        for key, value in state.counters.items():
            counters[key] = counters.get(key, 0) + value
        spans.extend(state.spans)
    base = sys.modules.get("repro.fusion.base")
    return {
        "layers": layers,
        "names": names,
        "counters": counters,
        "problem_compiles": getattr(base, "PROBLEM_COMPILES", None),
        "span_fields": ["id", "parent", "name", "layer", "start", "end", "tag"],
        "spans": spans,
    }


def main(argv: List[str]) -> None:
    if len(argv) < 2:
        print("usage: launch.py TRACE.json MODULE [ARGS...]", file=sys.stderr)
        sys.exit(2)
    out_path, module, args = argv[0], argv[1], argv[2:]
    pid = os.getpid()

    def write() -> None:
        if os.getpid() != pid:
            return  # a forked worker inherits the hook; only the parent writes
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(snapshot(), handle)

    install()
    atexit.register(write)
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
