"""Asyncio HTTP front-end over the truth-serving layer.

The store answers a point lookup in ~8µs; this module is what stands
between that dictionary read and real traffic — a socket, an event loop,
and live version churn.  :class:`TruthServer` wraps one
:class:`~repro.serving.TruthStore` in a stdlib ``asyncio`` HTTP/1.1 server
(keep-alive connections, no framework required) with these endpoints:

========================  ==================================================
``GET /health``           liveness + store version/day/size (auth-exempt)
``GET /lookup``           ``?object=&attribute=[&method=]`` point lookup
``GET /trust``            ``?source=[&method=]`` per-source trustworthiness
``GET /ensemble``         ``?object=&attribute=`` majority across methods
``GET /dump``             chunked NDJSON bulk dump, pinned to one snapshot
``GET /events``           SSE stream of publish/progress events
========================  ==================================================

Every answer carries an ``X-Store-Version`` header naming the snapshot it
was computed from.  Each request pins :meth:`TruthStore.snapshot` exactly
once, so a response is always internally consistent even while a publisher
swaps versions underneath — the ``/dump`` stream holds its snapshot for the
whole walk and can never interleave two versions.  Publishes reach SSE
subscribers through a store listener bridged onto the event loop with
``call_soon_threadsafe`` (publishers are usually plain threads: the solve
loop of ``cli serve --listen``, or the load-test publisher in the bench).

Token auth and structured request logging are composable middleware
(:mod:`repro.middleware`), applied outermost-first around the route
dispatch; ``/health`` stays reachable without credentials so probes work.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import AsyncIterator, Dict, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.middleware import (
    Request,
    Response,
    compose,
    json_response,
    request_logging,
    token_auth,
)
from repro.serving import StoreSnapshot, TruthStore

__all__ = [
    "TruthServer",
    "ServerHandle",
    "run_in_thread",
]

#: Chunk granularity of the NDJSON bulk dump (items per flushed chunk).
DUMP_BATCH = 256
#: Idle SSE subscriptions get a comment frame this often (seconds) so dead
#: client sockets surface as write errors instead of leaking queues.
SSE_KEEPALIVE_SECONDS = 15.0

def _snapshot_info(snap: StoreSnapshot) -> Dict[str, object]:
    return {
        "version": snap.version,
        "day": snap.day,
        "n_items": snap.n_items,
        "methods": list(snap.methods),
    }


class TruthServer:
    """One store behind an asyncio HTTP server (see module docstring).

    The server owns no solver: publishers (any thread) push new versions
    into ``store`` and every in-flight request keeps answering from the
    snapshot it pinned.  ``log_stream`` and ``auth_token`` wrap the route
    dispatch in the two shipped middlewares, logging outermost.
    """

    def __init__(
        self,
        store: TruthStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auth_token: Optional[str] = None,
        log_stream=None,
    ):
        self.store = store
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._subscribers: "set[asyncio.Queue]" = set()
        self._routes = {
            "/health": self._health,
            "/lookup": self._lookup,
            "/trust": self._trust,
            "/ensemble": self._ensemble,
            "/dump": self._dump,
            "/events": self._events,
        }
        chain = []
        if log_stream is not None:
            chain.append(request_logging(log_stream))
        if auth_token is not None:
            chain.append(token_auth(auth_token))
        self._handler = compose(chain, self._dispatch)
        store.add_listener(self._on_publish)

    # ---------------------------------------------------------------- routes
    async def _dispatch(self, request: Request) -> Response:
        if request.method != "GET":
            return json_response(
                {"error": f"method {request.method} not allowed"},
                status=405,
                headers={"Allow": "GET"},
            )
        route = self._routes.get(request.path)
        if route is None:
            return json_response(
                {"error": f"unknown path {request.path}",
                 "paths": sorted(self._routes)},
                status=404,
            )
        return await route(request)

    async def _health(self, request: Request) -> Response:
        snap = self.store.snapshot()
        payload = {"status": "ok", **_snapshot_info(snap)}
        return json_response(
            payload, headers={"X-Store-Version": str(snap.version)}
        )

    def _require(self, request: Request, *names: str) -> Optional[Response]:
        missing = [name for name in names if not request.query.get(name)]
        if missing:
            return json_response(
                {"error": f"missing query parameter(s): {', '.join(missing)}"},
                status=400,
            )
        return None

    async def _lookup(self, request: Request) -> Response:
        bad = self._require(request, "object", "attribute")
        if bad is not None:
            return bad
        snap = self.store.snapshot()
        answer = self.store.lookup(
            request.query["object"],
            request.query["attribute"],
            method=request.query.get("method"),
            snapshot=snap,
        )
        return self._answer_response(request, snap, answer)

    async def _ensemble(self, request: Request) -> Response:
        bad = self._require(request, "object", "attribute")
        if bad is not None:
            return bad
        snap = self.store.snapshot()
        answer = self.store.ensemble(
            request.query["object"], request.query["attribute"], snapshot=snap
        )
        return self._answer_response(request, snap, answer)

    def _answer_response(self, request, snap, answer) -> Response:
        version_header = {"X-Store-Version": str(snap.version)}
        if answer is None:
            return json_response(
                {
                    "error": "no truth",
                    "object": request.query["object"],
                    "attribute": request.query["attribute"],
                    "version": snap.version,
                },
                status=404,
                headers=version_header,
            )
        return json_response(
            {
                "object": answer.object_id,
                "attribute": answer.attribute,
                "value": answer.value,
                "method": answer.method,
                "version": answer.version,
                "day": answer.day,
            },
            headers=version_header,
        )

    async def _trust(self, request: Request) -> Response:
        bad = self._require(request, "source")
        if bad is not None:
            return bad
        snap = self.store.snapshot()
        method = request.query.get("method")
        value = self.store.trust(
            request.query["source"], method=method, snapshot=snap
        )
        version_header = {"X-Store-Version": str(snap.version)}
        if value is None:
            return json_response(
                {
                    "error": "unknown source or method",
                    "source": request.query["source"],
                    "version": snap.version,
                },
                status=404,
                headers=version_header,
            )
        return json_response(
            {
                "source": request.query["source"],
                "trust": value,
                "method": method or (snap.methods[0] if snap.methods else None),
                "version": snap.version,
                "day": snap.day,
            },
            headers=version_header,
        )

    async def _dump(self, request: Request) -> Response:
        """Bulk dump: chunked NDJSON, every line from one pinned snapshot."""
        snap = self.store.snapshot()
        method = request.query.get("method")

        async def stream() -> AsyncIterator[bytes]:
            batch = []
            for (object_id, attribute), values in sorted(snap.truths.items()):
                if method is not None:
                    if method not in values:
                        continue
                    values = {method: values[method]}
                batch.append(json.dumps(
                    {
                        "object": object_id,
                        "attribute": attribute,
                        "values": values,
                        "version": snap.version,
                    },
                    ensure_ascii=False,
                ))
                if len(batch) >= DUMP_BATCH:
                    yield ("\n".join(batch) + "\n").encode("utf-8")
                    batch = []
                    await asyncio.sleep(0)  # let other requests interleave
            if batch:
                yield ("\n".join(batch) + "\n").encode("utf-8")

        return Response(
            status=200,
            headers={
                "Content-Type": "application/x-ndjson; charset=utf-8",
                "X-Store-Version": str(snap.version),
            },
            stream=stream(),
        )

    async def _events(self, request: Request) -> Response:
        """SSE: publish/progress events as they happen (plus keep-alives)."""
        queue: asyncio.Queue = asyncio.Queue()
        snap = self.store.snapshot()

        async def stream() -> AsyncIterator[bytes]:
            self._subscribers.add(queue)
            try:
                yield _sse_frame("hello", _snapshot_info(snap))
                while True:
                    try:
                        event, data = await asyncio.wait_for(
                            queue.get(), SSE_KEEPALIVE_SECONDS
                        )
                    except asyncio.TimeoutError:
                        yield b": keep-alive\n\n"
                        continue
                    yield _sse_frame(event, data)
            finally:
                self._subscribers.discard(queue)

        return Response(
            status=200,
            headers={
                "Content-Type": "text/event-stream",
                "Cache-Control": "no-cache",
                "X-Store-Version": str(snap.version),
            },
            stream=stream(),
        )

    # ---------------------------------------------------------------- events
    def _on_publish(self, snapshot: StoreSnapshot) -> None:
        """Store listener: runs in the *publisher's* thread, under the
        publish lock — hop onto the event loop and return immediately."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(
                self._broadcast_local, "publish", _snapshot_info(snapshot)
            )
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def broadcast(self, event: str, data: Dict[str, object]) -> None:
        """Thread-safe fan-out of a custom event to every SSE subscriber.

        ``cli serve --listen`` uses this to surface per-day solve progress
        (compile/solve seconds, rounds) while a day is being fused.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._broadcast_local, event, dict(data))
        except RuntimeError:
            pass

    def _broadcast_local(self, event: str, data: Dict[str, object]) -> None:
        for queue in self._subscribers:
            queue.put_nowait((event, data))

    # ------------------------------------------------------------- transport
    async def start(self) -> None:
        """Bind and start accepting (resolves ``port`` when it was 0)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                # 3.12's wait_closed also waits for in-flight connections —
                # a live SSE subscription would park shutdown forever, so
                # bound the wait; the loop teardown cancels the stragglers.
                await asyncio.wait_for(self._server.wait_closed(), timeout=1.0)
            except asyncio.TimeoutError:
                pass
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                try:
                    response = await self._handler(request)
                except Exception as error:  # route bug: report, keep serving
                    response = json_response(
                        {"error": f"internal error: {error}"}, status=500
                    )
                keep_alive = self._keep_alive(request, response)
                try:
                    await self._write_response(writer, response, keep_alive)
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass  # loop teardown cancelling a parked connection: just close
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    def _keep_alive(request: Request, response: Response) -> bool:
        if response.stream is not None:
            return False  # streamed responses own the connection
        connection = request.headers.get("connection", "").lower()
        if request.http_version == "1.0":
            return connection == "keep-alive"
        return connection != "close"

    async def _read_request(self, reader) -> Optional[Request]:
        try:
            blob = await reader.readuntil(b"\r\n\r\n")
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionResetError,
        ):
            return None
        try:
            head = blob.decode("latin-1")
            request_line, *header_lines = head.split("\r\n")
            method, target, proto = request_line.split(" ", 2)
            headers: Dict[str, str] = {}
            for line in header_lines:
                if not line:
                    continue
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0) or 0)
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
        except ValueError:
            return None
        # GET requests should have no body; drain one if a client sent it so
        # the next keep-alive request starts at a message boundary.
        if length:
            try:
                await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        parts = urlsplit(target)
        return Request(
            method=method.upper(),
            path=parts.path or "/",
            query=dict(parse_qsl(parts.query)),
            headers=headers,
            http_version="1.0" if proto.endswith("/1.0") else "1.1",
        )

    async def _write_response(
        self, writer, response: Response, keep_alive: bool
    ) -> None:
        head = [f"HTTP/1.1 {response.status} {response.reason}"]
        headers = dict(response.headers)
        headers.setdefault("Content-Type", "application/json; charset=utf-8")
        if response.stream is None:
            headers["Content-Length"] = str(len(response.body))
        else:
            headers["Transfer-Encoding"] = "chunked"
        headers["Connection"] = "keep-alive" if keep_alive else "close"
        head.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        if response.stream is None:
            writer.write(response.body)
            await writer.drain()
            return
        stream = response.stream
        try:
            async for chunk in stream:
                if not chunk:
                    continue
                writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            aclose = getattr(stream, "aclose", None)
            if aclose is not None:
                try:
                    await aclose()
                except RuntimeError:
                    pass


def _sse_frame(event: str, data: Dict[str, object]) -> bytes:
    return (
        f"event: {event}\ndata: {json.dumps(data, ensure_ascii=False)}\n\n"
    ).encode("utf-8")


# --------------------------------------------------------------------------
# Thread embedding: tests, the bench harness, and `cli serve --listen` run
# the event loop on a background thread while the calling thread publishes.
# --------------------------------------------------------------------------
class ServerHandle:
    """A running server on a background thread (see :func:`run_in_thread`)."""

    def __init__(self, server, loop, thread, stop_event):
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stop_event = stop_event

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def broadcast(self, event: str, data: Dict[str, object]) -> None:
        self.server.broadcast(event, data)

    def stop(self, timeout: float = 5.0) -> None:
        try:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        except RuntimeError:
            pass  # loop already gone
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_in_thread(
    store: TruthStore,
    host: str = "127.0.0.1",
    port: int = 0,
    **server_kwargs,
) -> ServerHandle:
    """Start a :class:`TruthServer` on a daemon thread; returns its handle.

    The bound port is resolved before this returns, so callers can connect
    immediately.
    """
    started = threading.Event()
    holder: Dict[str, object] = {}

    async def _main() -> None:
        server = TruthServer(store, host, port, **server_kwargs)
        try:
            await server.start()
        except OSError as error:
            holder["error"] = error
            started.set()
            return
        stop_event = asyncio.Event()
        holder.update(
            server=server,
            loop=asyncio.get_running_loop(),
            stop_event=stop_event,
        )
        started.set()
        try:
            await stop_event.wait()
        finally:
            await server.stop()

    thread = threading.Thread(
        target=lambda: asyncio.run(_main()),
        name="truth-server",
        daemon=True,
    )
    thread.start()
    started.wait()
    if "error" in holder:
        thread.join()
        raise holder["error"]  # type: ignore[misc]
    return ServerHandle(
        holder["server"], holder["loop"], thread, holder["stop_event"]
    )
