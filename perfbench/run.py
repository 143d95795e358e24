"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload day --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Prints one JSON line describing the run
(environment stamp, seeds, input sizes, per-phase detail), then as the
last line ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback

import harness
import workloads

WORKLOADS = {
    "reproduce": lambda cfg, rd: workloads.reproduce(cfg, rd, workers=1),
    "reproduce_w2": lambda cfg, rd: workloads.reproduce(cfg, rd, workers=2),
    "day": workloads.day,
    "serve": workloads.serve,
}


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("small", "tiny"), default="small",
                        help="input scale; tiny is for the smoke test only")
    args = parser.parse_args(argv)

    spec_path = harness.ROOT / "BENCHMARK.json"
    if not harness.checkout_ok() or not spec_path.is_file():
        print(f"{harness.ROOT} is not a checkout of the program "
              "(src/repro or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    cfg = workloads.Config(args.seed, args.seconds, bool(args.trace), args.scale)
    signal.signal(signal.SIGTERM, _terminate)
    run_dir = harness.RunDir(args.workload)
    try:
        harness.use_sources()
        env = harness.environment()
        outcome = WORKLOADS[args.workload](cfg, run_dir)
        if cfg.trace:
            workloads.check_exercised(args.workload, outcome)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        harness.stop_all()
        run_dir.remove()

    source = outcome.layers if cfg.trace else outcome.e2e
    kind = "per_layer" if cfg.trace else "end_to_end"
    metrics = {}
    for entry in spec[kind]:
        value = source.get(entry["name"])
        if value is None:
            if not cfg.trace:
                print(f"metric {entry['name']} was not measured", file=sys.stderr)
                return 1
            # A layer this workload never enters; the layers it does enter
            # were checked non-zero by workloads.check_exercised.
            value = 0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "env": env,
        "problems": outcome.problems, "info": outcome.info,
    }))
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
