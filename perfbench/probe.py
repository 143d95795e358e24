"""Host speed probe, run by the harness as its own process::

    python3 perfbench/probe.py INTERVAL_S

Every ``INTERVAL_S`` it pins itself to one CPU and times a fixed unit of
interpreter work, printing nothing until told to stop.  Which CPU is read
from stdin, one line per change: a pid means "the CPU that process last
ran on", ``0`` means "every CPU in turn", ``quit`` ends the probe, which
then prints its samples as one JSON list of ``[perf_counter, cpu,
seconds]``.

On a shared host the speed of each CPU drifts by tens of percent over tens
of seconds; the unit's time on the CPU the program runs on tracks that
drift, so the harness can divide it out (see ``harness.Probe``).
"""

from __future__ import annotations

import json
import os
import select
import sys
import time


def unit() -> int:
    """The fixed unit of work (about 2 ms of interpreter time)."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


def cpu_of(pid: int) -> int:
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # "processor" is field 39; the fields after "(comm)" start at 3.
        return int(handle.read().rsplit(b")", 1)[1].split()[36])


def main(interval: float) -> None:
    cpus = sorted(os.sched_getaffinity(0))
    target, turn, samples = 0, 0, []
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], interval)
        if readable:
            line = sys.stdin.readline().strip()
            if not line or line == "quit":
                break
            target = int(line)
        cpu = None
        if target:
            try:
                cpu = cpu_of(target)
            except (OSError, ValueError, IndexError):
                cpu = None
        if cpu is None:
            cpu = cpus[turn % len(cpus)]
            turn += 1
        os.sched_setaffinity(0, {cpu})
        started = time.perf_counter()
        unit()
        samples.append([started, cpu, time.perf_counter() - started])
    json.dump(samples, sys.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main(float(sys.argv[1]))
