"""Smoke test of the benchmark: a tiny-scale run of every workload, untraced
and traced, asserting that every named metric is emitted and every output
check passes.  Not collected by the repository's test suite (the name does
not match ``test_*.py``); run it explicitly from the repository root::

    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Layers a workload never enters report zero.  (A traced run itself fails
#: when a layer it exercises reads zero: workloads.EXERCISED.)
IDLE = {
    "day": ("datagen.snapshots", "parallel.export_s", "reproduce_s"),
    "serve": ("datagen.snapshots", "io.rows", "fusion.fixed_point.solves"),
}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=900,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for entry in SPEC[kind]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        busy = [name for name in IDLE.get(workload, ()) if values[name] != 0]
        assert not busy, busy
    else:
        assert all(value > 0 for value in values.values()), values
    assert {"nproc", "python", "numpy", "numba_imports", "engine_effective",
            "git_commit"} <= set(info["env"])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("serve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
