"""Experiment runner: regenerate any table or figure from the paper.

Usage (CLI)::

    python -m repro.experiments <experiment-id> [--scale tiny|small|default|paper]
    python -m repro.experiments all --scale small

Experiment ids are the paper's artifact names: ``table1`` ... ``table9``,
``figure1`` ... ``figure12``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Tuple

from repro.errors import ConfigError
from repro.experiments import (
    figure1,
    figure2_3,
    figure4,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    table1,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.experiments.context import SCALES, get_context

#: Experiment id -> (run, render).
EXPERIMENTS: Dict[str, Tuple[Callable, Callable]] = {
    "table1": (table1.run, table1.render),
    "table3": (table3.run, table3.render),
    "table4": (table4.run, table4.render),
    "table5": (table5.run, table5.render),
    "table6": (table6.run, table6.render),
    "table7": (table7.run, table7.render),
    "table8": (table8.run, table8.render),
    "table9": (table9.run, table9.render),
    "figure1": (figure1.run, figure1.render),
    "figure2_3": (figure2_3.run, figure2_3.render),
    "figure4": (figure4.run, figure4.render),
    "figure6": (figure6.run, figure6.render),
    "figure7": (figure7.run, figure7.render),
    "figure8": (figure8.run, figure8.render),
    "figure9": (figure9.run, figure9.render),
    "figure10": (figure10.run, figure10.render),
    "figure11": (figure11.run, figure11.render),
    "figure12": (figure12.run, figure12.render),
}

#: Aliases so ``figure2`` and ``figure3`` both resolve.
ALIASES = {"figure2": "figure2_3", "figure3": "figure2_3", "table2": "table1"}


def run_experiment(
    experiment_id: str,
    scale: str = "small",
    context=None,
) -> str:
    """Run one experiment and return its rendered report.

    Pass ``context`` to share one generated dataset + compiled problem (and
    its one worker pool, sized by ``context.workers``) across several
    experiments — ``main('all')`` does.
    """
    key = ALIASES.get(experiment_id, experiment_id)
    if key not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"unknown experiment {experiment_id!r}; known: {known}")
    if context is None:
        context = get_context(scale)
    run, render = EXPERIMENTS[key]
    return render(run(context))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (table1..table9, figure1..figure12) or 'all'",
    )
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the parallelizable experiments "
             "(method comparisons, the Figure 9 sweep, Table 9's "
             "per-day solves)",
    )
    args = parser.parse_args(argv)

    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    context = get_context(args.scale)
    prior_workers = context.workers
    context.workers = args.workers
    try:
        if args.experiment == "all":
            # One dataset generation + one compiled problem per domain,
            # shared by every experiment below (and exported to the shared
            # worker pool at most once).
            started = time.perf_counter()
            context.prepare()
            elapsed = time.perf_counter() - started
            print(f"== context (scale={args.scale}, prepared in {elapsed:.1f}s) ==")
            print()
        for experiment_id in ids:
            started = time.perf_counter()
            report = run_experiment(experiment_id, context=context)
            elapsed = time.perf_counter() - started
            print(f"== {experiment_id} (scale={args.scale}, {elapsed:.1f}s) ==")
            print(report)
            print()
    finally:
        context.workers = prior_workers
        context.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
