"""Single-threaded HTTP load generator over keep-alive connections.

One thread multiplexes up to two connections with ``select.select``
(microsecond timeouts; epoll and poll round timeouts up to whole
milliseconds).  A request is sent on the first idle connection once its
due time has passed, so a schedule is an open loop: a slow server makes
later requests wait, and that wait counts because latency is timed from
each request's due time.  A schedule whose due times all equal the start
is a closed loop over the connections.

Each record also carries the generator's own lateness: how long after the
request could first have gone out (its due time, or the moment a
connection became free, whichever is later) it actually went out.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import select
import socket
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

_perf = time.perf_counter


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(values: Sequence[float], beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percent, value)``; ``(0.0, 0.0)`` when the sample is too
    small to leave ``beyond`` samples above any rank.
    """
    ordered = sorted(values)
    index = len(ordered) - 1 - beyond
    if index < 0:
        return 0.0, 0.0
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def request_bytes(path: str, token: Optional[str]) -> bytes:
    auth = f"Authorization: Bearer {token}\r\n" if token else ""
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n{auth}\r\n".encode("latin-1")


class Connection:
    """One keep-alive client connection with an incremental parser."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.free_since = _perf()

    def close(self) -> None:
        self.sock.close()

    def parse(self):
        """``(status, version, body)`` once a whole response is buffered."""
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.buffer[:end].decode("latin-1")
        lines = head.split("\r\n")
        length = 0
        version = -1
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "x-store-version":
                version = int(value)
        total = end + 4 + length
        if len(self.buffer) < total:
            return None
        body = self.buffer[end + 4:total]
        self.buffer = self.buffer[total:]
        return int(lines[0].split(" ", 2)[1]), version, body


@dataclass
class Record:
    """One request of a schedule (times are ``perf_counter`` seconds)."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    late: float = 0.0
    status: int = 0
    version: int = -1
    body: bytes = b""
    sent_wall: float = 0.0
    done_wall: float = 0.0

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def service(self) -> float:
        return self.done - self.sent


@dataclass
class RunResult:
    records: List[Record]
    error: Optional[str] = None
    backlog_at_end: int = 0
    stopped_early: bool = False


class _NoGC(contextlib.ContextDecorator):
    """Collect once, then keep the cyclic collector off while load runs
    (a full collection over the harness's objects would make the
    generator late)."""

    def __enter__(self):
        self.enabled = gc.isenabled()
        gc.collect()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.enabled:
            gc.enable()


@_NoGC()
def run_schedule(
    host: str,
    port: int,
    requests: Sequence[bytes],
    offsets: Sequence[float],
    connections: int = 2,
    stop: Optional[Callable[[Record], bool]] = None,
    idle_timeout: float = 10.0,
) -> RunResult:
    """Send ``requests[i]`` at ``start + offsets[i]`` over keep-alive
    connections; returns one :class:`Record` per request sent.

    ``stop(record)`` is called on every completed response and ends the
    run early when it returns true.  ``backlog_at_end`` counts requests
    that were due by the last due time but not yet answered then.
    """
    conns = [Connection(host, port) for _ in range(connections)]
    records: List[Record] = []
    busy = {}
    idle = list(conns)
    n = len(requests)
    start = _perf()
    for conn in conns:
        conn.free_since = start
    last_due = start + (offsets[-1] if n else 0.0)
    backlog_at_end = -1
    result = RunResult(records=records)
    i = 0
    try:
        while (i < n and not result.stopped_early) or busy:
            now = _perf()
            while (
                i < n and idle and not result.stopped_early
                and start + offsets[i] <= now
            ):
                conn = idle.pop()
                due = start + offsets[i]
                record = Record(index=i, due=due)
                record.sent_wall = time.time()
                record.sent = _perf()
                record.late = record.sent - max(due, conn.free_since)
                conn.sock.sendall(requests[i])
                busy[conn.sock] = (record, conn)
                records.append(record)
                i += 1
                now = record.sent
            if backlog_at_end < 0 and now >= last_due:
                backlog_at_end = (n - i) + len(busy)
            if i < n and idle and not result.stopped_early:
                timeout = max(0.0, start + offsets[i] - now)
            else:
                timeout = idle_timeout
            readable, _, _ = select.select(list(busy), [], [], timeout)
            if not readable and not (i < n and idle):
                result.error = f"no response within {idle_timeout}s"
                break
            for sock in readable:
                record, conn = busy[sock]
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                conn.buffer += chunk
                parsed = conn.parse()
                if parsed is None:
                    continue
                record.done = _perf()
                record.done_wall = time.time()
                record.status, record.version, record.body = parsed
                del busy[sock]
                conn.free_since = record.done
                idle.append(conn)
                if stop is not None and stop(record):
                    result.stopped_early = True
    except OSError as error:
        result.error = f"{type(error).__name__}: {error}"
    finally:
        for conn in conns:
            conn.close()
    result.backlog_at_end = max(0, backlog_at_end)
    return result


def read_dump(host: str, port: int, token: Optional[str]) -> List[dict]:
    """``GET /dump``: read the chunked NDJSON body to EOF and parse it."""
    sock = socket.create_connection((host, port), timeout=30.0)
    try:
        sock.sendall(request_bytes("/dump", token))
        data = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    finally:
        sock.close()
    head, _, rest = data.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0]
    if b" 200 " not in status_line:
        raise ValueError(f"/dump answered {status_line!r}")
    body = b""
    while rest:
        size_line, _, rest = rest.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            break
        body += rest[:size]
        rest = rest[size + 2:]
    return [json.loads(line) for line in body.decode("utf-8").splitlines() if line]

