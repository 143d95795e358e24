"""The names the end-to-end benchmark wraps still exist.

``perfbench/launch.py`` wraps every function in its ``TARGETS`` table and
the ``repro.middleware`` factories in timing spans, and ``_install`` raises
on a missing name; ``perfbench/harness.py`` stamps ``resolve_engine(None)``
on every run.  Renaming or deleting any of them would otherwise show only
in the slow benchmark smoke run.  This resolves them without installing
anything.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path


LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"


def _load_launch():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


launch = _load_launch()


def _resolves(module_name, qualname):
    """Whether ``_install`` would find ``qualname`` in ``module_name``."""
    module = importlib.import_module(module_name)
    if "." not in qualname:
        return callable(getattr(module, qualname, None))
    class_name, attr = qualname.split(".")
    raw = vars(getattr(module, class_name, object)).get(attr)
    return callable(raw.__func__ if isinstance(raw, classmethod) else raw)


def test_every_target_resolves_as_install_would():
    for preload in launch.PRELOAD:
        importlib.import_module(preload)
    missing = [
        f"{module_name}:{qualname}"
        for module_name, qualname, *_ in launch.TARGETS
        if not _resolves(module_name, qualname)
    ]
    assert launch.TARGETS and missing == []


def test_wrapped_middleware_factories_exist():
    # The factory names are the tuple ``_install_middleware`` loops over.
    tree = ast.parse(inspect.getsource(launch._install_middleware))
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
    names = ast.literal_eval(loops[0].iter)
    assert names
    middleware = importlib.import_module("repro.middleware")
    for name in names:
        assert callable(getattr(middleware, name)), name


def test_engine_stamp_is_numpy():
    from repro.fusion.base import resolve_engine

    assert resolve_engine(None) == "numpy"
