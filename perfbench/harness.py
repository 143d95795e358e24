"""Process plumbing shared by the workloads: spawning the program from the
checkout's sources, readiness probes, peak RSS, clean shutdown, and the
environment stamp printed with every result."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
LAUNCHER = BENCH_DIR / "launch.py"
HOST = "127.0.0.1"

_live: List[subprocess.Popen] = []


def checkout_ok() -> bool:
    return (SRC / "repro" / "cli.py").is_file()


def use_sources() -> None:
    """Import the checkout's ``repro`` in this process (inputs and checks)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class RunDir:
    """Scratch space inside the checkout, removed when the run ends."""

    def __init__(self, workload: str):
        self.path = ROOT / ".perfbench_run" / f"{workload}-{os.getpid()}"
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)

    def __truediv__(self, name: str) -> Path:
        return self.path / name

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def program_env(run_dir: RunDir) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(run_dir.path)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(module_args: Sequence[str], run_dir: RunDir, log_name: str,
          trace_path: Optional[Path] = None) -> subprocess.Popen:
    """Start ``python3 -m <module_args>`` (or the traced launcher)."""
    if trace_path is None:
        argv = [sys.executable, "-m", *module_args]
    else:
        argv = [sys.executable, str(LAUNCHER), str(trace_path), *module_args]
    out = open(run_dir / f"{log_name}.out", "wb")
    err = open(run_dir / f"{log_name}.err", "wb")
    try:
        proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=program_env(run_dir),
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
    finally:
        out.close()
        err.close()
    proc.started = time.perf_counter()
    proc.maxrss_mb = 0.0
    _live.append(proc)
    return proc


def _high_water_mb(pid: int) -> float:
    """``VmHWM`` of a live process.  (``ru_maxrss`` from ``wait4`` is not
    used: it also counts the spawning harness's pages at fork time.)"""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _children(pid: int) -> List[int]:
    """Pids whose parent is ``pid``.  (``/proc/<pid>/task/*/children``
    needs a kernel built with ``CONFIG_PROC_CHILDREN``.)"""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(b")", 1)[1].split()[1]) == pid:
            kids.append(int(entry))
    return kids


#: Reap polls every 5 ms; the program's children are sampled every 40th poll.
_CHILD_POLL_EVERY = 40


def reap(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc`` (killing it after ``timeout``).

    Records peak RSS (``VmHWM`` only grows, so the last reading before
    exit is the peak) of the program and of each of its child processes
    (the solve workers), and sets ``proc.peak_rss_mb`` to the program's
    peak plus the highest child peak.  Forked workers share pages with the
    program, so that sum is an upper estimate.
    """
    deadline = time.perf_counter() + timeout
    child_peaks: Dict[int, float] = {}
    polls = 0
    while proc.returncode is None:
        proc.maxrss_mb = max(proc.maxrss_mb, _high_water_mb(proc.pid))
        if polls % _CHILD_POLL_EVERY == 0:
            for child in _children(proc.pid):
                child_peaks[child] = max(child_peaks.get(child, 0.0),
                                         _high_water_mb(child))
        polls += 1
        pid, status = os.waitpid(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.ended = time.perf_counter()
            break
        if time.perf_counter() > deadline:
            kill(proc)
            deadline = time.perf_counter() + 10.0
        time.sleep(0.005)
    proc.children_rss_mb = max(child_peaks.values(), default=0.0)
    proc.peak_rss_mb = proc.maxrss_mb + proc.children_rss_mb
    if proc in _live:
        _live.remove(proc)
    return proc.returncode


def kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def interrupt(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """Ask a serving program to exit cleanly (SIGINT), then reap it."""
    if proc.returncode is None:
        try:
            os.kill(proc.pid, signal.SIGINT)
        except ProcessLookupError:
            pass
    return reap(proc, timeout)


def stop_all() -> None:
    """Kill and reap every program this process started and did not reap."""
    for proc in list(_live):
        kill(proc)
        reap(proc, 10.0)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def wait_ready(proc: subprocess.Popen, port: int, timeout: float = 60.0) -> float:
    """Poll ``/health`` until it answers 200; returns the ready time."""
    deadline = time.perf_counter() + timeout
    probe = b"GET /health HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"program exited with {proc.returncode} before ready")
        try:
            with socket.create_connection((HOST, port), timeout=1.0) as sock:
                sock.sendall(probe)
                head = sock.recv(64)
            if head.startswith(b"HTTP/1.1 200"):
                return time.perf_counter()
        except OSError:
            pass
        time.sleep(0.002)
    raise RuntimeError(f"program not ready within {timeout}s")


#: The probe's unit time in a fast phase of a 2-vCPU Xeon VM: scaled times
#: are seconds at that speed.
PROBE_REF_S = 0.0015
PROBE_INTERVAL_S = 0.15


class Probe:
    """The host speed probe (``perfbench/probe.py``) of one run.

    ``follow(pid)`` points it at the CPU a program runs on (``0``: every
    CPU in turn, for work spread over all of them); after ``stop()``,
    ``scale(t0, t1)`` gives ``t1 - t0`` at the reference speed: the
    interval times ``PROBE_REF_S`` over the median unit time sampled in it.
    """

    def __init__(self):
        self.proc: Optional[subprocess.Popen] = None
        self.samples: List[List[float]] = []

    def follow(self, pid: int) -> None:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "probe.py"), str(PROBE_INTERVAL_S)],
                cwd=str(ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                start_new_session=True,
            )
            self.proc.maxrss_mb = 0.0
            _live.append(self.proc)
        self.proc.stdin.write(f"{pid}\n".encode("ascii"))
        self.proc.stdin.flush()

    def stop(self) -> None:
        if self.proc is None:
            return
        out, _ = self.proc.communicate(b"quit\n", timeout=30)
        _live.remove(self.proc)
        self.proc = None
        self.samples = json.loads(out)

    def scale(self, t0: float, t1: float) -> float:
        inside = [s[2] for s in self.samples if t0 <= s[0] <= t1]
        if len(inside) < 3:  # a short interval: its nearest samples
            middle = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:3]
            inside = [s[2] for s in nearest]
        return (t1 - t0) * PROBE_REF_S / statistics.median(inside)


PROBE = Probe()


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported checkout
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> Dict[str, object]:
    """The stamp every payload carries."""
    import numpy

    from repro.fusion.base import resolve_engine

    requested = os.environ.get("REPRO_ENGINE", "").strip() or "numpy"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": importlib.util.find_spec("numba") is not None,
        "engine_requested": requested,
        "engine_effective": resolve_engine(None),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }
