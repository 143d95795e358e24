"""CI gate: fail when the bench summary regresses against a committed baseline.

Compares the ``summary`` block of a fresh ``BENCH_fusion.json`` against a
committed baseline payload:

* **speedup keys** (``*speedup*``, ratios of two timings from the *same*
  run, so they are robust to absolute machine speed) must not fall more
  than ``--threshold`` (default 25%) below the baseline;
* **equality keys** (``*_equal``) must be ``True`` — a bit-identity break
  is a correctness bug, not a perf regression.

Absolute timings (query latencies, wall-clock seconds) are reported but
never gated: hosted runners are too noisy for them.

``--require KEY:MIN`` (repeatable) additionally asserts a hard floor on a
current-summary key, which need not have a baseline counterpart.
``--require-max KEY:MAX`` is the mirror-image ceiling, for latency keys
where *smaller* is better — how CI gates the serving scenario's ``serving_lookup_p99_ms`` (the bound
is deliberately generous: it catches a serve path collapsing into
head-of-line blocking, not runner-to-runner jitter).

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_small_baseline.json \
        --current BENCH_fusion.json --threshold 0.25 \
        --require-max serving_lookup_p99_ms:250
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence


def compare(baseline: dict, current: dict, threshold: float) -> list:
    failures = []
    base_summary = baseline.get("summary", {})
    summary = current.get("summary", {})
    if baseline.get("scale") != current.get("scale"):
        print(
            f"[check] note: baseline scale {baseline.get('scale')!r} != "
            f"current scale {current.get('scale')!r}; ratios still compared"
        )
    for key, base_value in sorted(base_summary.items()):
        value = summary.get(key)
        if key.endswith("_equal"):
            if value is not True:
                failures.append(f"{key}: expected True, got {value!r}")
            continue
        if "speedup" not in key:
            continue  # absolute timings are informational only
        if not isinstance(base_value, (int, float)):
            continue
        if value is None:
            failures.append(f"{key}: missing from current summary")
            continue
        floor = base_value * (1.0 - threshold)
        status = "ok" if value >= floor else "REGRESSED"
        print(
            f"[check] {key}: baseline {base_value:.2f} -> current "
            f"{value:.2f} (floor {floor:.2f}) {status}"
        )
        if value < floor:
            failures.append(
                f"{key}: {value:.2f} < {floor:.2f} "
                f"({threshold:.0%} below baseline {base_value:.2f})"
            )
    return failures


def check_required(current: dict, requirements: Sequence[str]) -> list:
    """Hard floors on current-summary keys (``KEY:MIN``), baseline-free."""
    failures = []
    summary = current.get("summary", {})
    for requirement in requirements:
        key, sep, floor_text = requirement.partition(":")
        if not sep:
            failures.append(f"--require {requirement!r}: expected KEY:MIN")
            continue
        try:
            floor = float(floor_text)
        except ValueError:
            failures.append(
                f"--require {requirement!r}: {floor_text!r} is not a number"
            )
            continue
        value = summary.get(key)
        if not isinstance(value, (int, float)):
            failures.append(f"{key}: required >= {floor} but key is missing")
            continue
        status = "ok" if value >= floor else "BELOW FLOOR"
        print(
            f"[check] {key}: required >= {floor:.2f}, "
            f"current {value:.2f} {status}"
        )
        if value < floor:
            failures.append(f"{key}: {value:.2f} < required floor {floor:.2f}")
    return failures


def check_required_max(current: dict, requirements: Sequence[str]) -> list:
    """Hard ceilings on current-summary keys (``KEY:MAX``), baseline-free."""
    failures = []
    summary = current.get("summary", {})
    for requirement in requirements:
        key, sep, ceiling_text = requirement.partition(":")
        if not sep:
            failures.append(f"--require-max {requirement!r}: expected KEY:MAX")
            continue
        try:
            ceiling = float(ceiling_text)
        except ValueError:
            failures.append(
                f"--require-max {requirement!r}: "
                f"{ceiling_text!r} is not a number"
            )
            continue
        value = summary.get(key)
        if not isinstance(value, (int, float)):
            failures.append(f"{key}: required <= {ceiling} but key is missing")
            continue
        status = "ok" if value <= ceiling else "ABOVE CEILING"
        print(
            f"[check] {key}: required <= {ceiling:.2f}, "
            f"current {value:.2f} {status}"
        )
        if value > ceiling:
            failures.append(
                f"{key}: {value:.2f} > required ceiling {ceiling:.2f}"
            )
    return failures


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed baseline payload (JSON)")
    parser.add_argument("--current", default="BENCH_fusion.json",
                        help="freshly produced payload (JSON)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional speedup drop (default 0.25)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="KEY:MIN",
                        help="hard floor on a current-summary key with no "
                             "baseline counterpart (repeatable)")
    parser.add_argument("--require-max", action="append", default=[],
                        metavar="KEY:MAX",
                        help="hard ceiling on a current-summary key — for "
                             "latency keys where smaller is better "
                             "(repeatable)")
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)
    failures = compare(baseline, current, args.threshold)
    failures += check_required(current, args.require)
    failures += check_required_max(current, args.require_max)
    if failures:
        print("[check] FAILED:")
        for failure in failures:
            print(f"[check]   {failure}")
        return 1
    print("[check] summary within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
