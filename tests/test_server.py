"""The asyncio HTTP front-end: routes, middleware, streams, live publishes."""

import asyncio
import http.client
import io
import json
import logging
import socket
import threading
import time

import pytest

from repro.core.records import DataItem
from repro.fusion.base import FusionResult
from repro.middleware import Request, compose, json_response
from repro.serving import TruthStore
from repro.server import run_in_thread

N_ITEMS = 24


def _result(version, n_items=N_ITEMS):
    """Every item's value and s1's trust encode the version — any mix of
    versions inside one response is therefore detectable as a torn read."""
    return {
        "Vote": FusionResult(
            method="Vote",
            selected={
                DataItem(f"o{i}", "price"): float(version)
                for i in range(n_items)
            },
            trust={"s1": float(version)},
        ),
        "AccuSim": FusionResult(
            method="AccuSim",
            selected={
                DataItem(f"o{i}", "price"): float(version)
                for i in range(n_items)
            },
            trust={"s1": float(version)},
        ),
    }


def _get(port, path, headers=None, timeout=5):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        try:
            decoded = json.loads(body) if body else None
        except json.JSONDecodeError:
            decoded = body  # NDJSON streams and the like
        return response.status, decoded, dict(response.getheaders())
    finally:
        conn.close()


@pytest.fixture()
def store():
    store = TruthStore(monotonic_days=True)
    store.publish("day0000", _result(1))
    return store


@pytest.fixture()
def server(store):
    with run_in_thread(store) as handle:
        yield handle


class TestEndpoints:
    def test_health(self, server, store):
        status, body, headers = _get(server.port, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["version"] == store.version
        assert body["day"] == "day0000"
        assert body["n_items"] == N_ITEMS
        assert body["methods"] == ["Vote", "AccuSim"]
        assert headers["X-Store-Version"] == str(store.version)

    def test_lookup_trust_ensemble(self, server):
        status, body, headers = _get(
            server.port, "/lookup?object=o3&attribute=price"
        )
        assert status == 200
        assert body["value"] == 1.0 and body["method"] == "Vote"
        assert headers["X-Store-Version"] == "1"
        status, body, _ = _get(
            server.port, "/lookup?object=o3&attribute=price&method=AccuSim"
        )
        assert status == 200 and body["method"] == "AccuSim"
        status, body, _ = _get(server.port, "/trust?source=s1")
        assert status == 200 and body["trust"] == 1.0
        status, body, _ = _get(
            server.port, "/ensemble?object=o3&attribute=price"
        )
        assert status == 200 and body["method"] == "Ensemble"

    def test_misses_are_404_with_version(self, server):
        status, body, headers = _get(
            server.port, "/lookup?object=o999&attribute=price"
        )
        assert status == 404 and body["error"] == "no truth"
        assert headers["X-Store-Version"] == "1"
        status, body, _ = _get(server.port, "/trust?source=ghost")
        assert status == 404
        status, body, _ = _get(
            server.port, "/lookup?object=o3&attribute=price&method=Nope"
        )
        assert status == 404

    def test_bad_requests(self, server):
        status, body, _ = _get(server.port, "/lookup?object=o3")
        assert status == 400 and "attribute" in body["error"]
        status, body, _ = _get(server.port, "/nope")
        assert status == 404 and "/lookup" in body["paths"]
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request("POST", "/lookup", body=b"{}")
            response = conn.getresponse()
            assert response.status == 405
            assert response.getheader("Allow") == "GET"
            response.read()
        finally:
            conn.close()

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_malformed_content_length_closes_quietly(
        self, server, caplog, length
    ):
        """Dropped like any malformed head: no reply and no traceback."""
        caplog.set_level(logging.DEBUG, logger="asyncio")
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            sock.sendall(
                b"GET /health HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + length + b"\r\n\r\n"
            )
            assert sock.recv(4096) == b""
        status, _, _ = _get(server.port, "/health")
        assert status == 200
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_keep_alive_reuses_one_connection(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            for _ in range(3):
                conn.request("GET", "/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


class TestMiddleware:
    def test_token_auth_guards_everything_but_health(self, store):
        with run_in_thread(store, auth_token="sekret") as handle:
            status, _, _ = _get(handle.port, "/health")
            assert status == 200
            status, body, _ = _get(
                handle.port, "/lookup?object=o1&attribute=price"
            )
            assert status == 401 and body["error"] == "unauthorized"
            status, _, _ = _get(
                handle.port,
                "/lookup?object=o1&attribute=price",
                headers={"Authorization": "Bearer wrong"},
            )
            assert status == 401
            status, body, _ = _get(
                handle.port,
                "/lookup?object=o1&attribute=price",
                headers={"Authorization": "Bearer sekret"},
            )
            assert status == 200 and body["value"] == 1.0
            # The alternate header form works too.
            status, _, _ = _get(
                handle.port,
                "/dump",
                headers={"X-API-Token": "sekret"},
            )
            assert status == 200

    def test_request_logging_emits_json_lines(self, store):
        log = io.StringIO()
        with run_in_thread(store, log_stream=log) as handle:
            _get(handle.port, "/lookup?object=o1&attribute=price")
            _get(handle.port, "/lookup?object=o999&attribute=price")
        lines = [json.loads(line) for line in log.getvalue().splitlines()]
        assert len(lines) == 2
        assert lines[0]["path"] == "/lookup" and lines[0]["status"] == 200
        assert lines[0]["version"] == 1 and lines[0]["bytes"] > 0
        assert lines[0]["duration_ms"] >= 0
        assert lines[1]["status"] == 404

    def test_compose_unit(self):
        seen = []

        async def handler(request):
            return json_response({"ok": True})

        def tag(label):
            def middleware(handler):
                async def wrapped(request):
                    seen.append(label)
                    response = await handler(request)
                    response.headers[f"X-{label}"] = "1"
                    return response

                return wrapped

            return middleware

        chain = compose([tag("outer"), tag("inner")], handler)
        response = asyncio.run(chain(Request(method="GET", path="/x")))
        assert seen == ["outer", "inner"]  # outermost first
        assert response.headers["X-outer"] == response.headers["X-inner"] == "1"


class TestStreaming:
    def test_dump_is_pinned_to_one_version(self, server, store):
        """A publish landing mid-dump must not leak into the stream."""
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request("GET", "/dump")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "application/x-ndjson"
            )
            pinned = int(response.getheader("X-Store-Version"))
            first = response.read(64)  # start consuming ...
            store.publish("day0001", _result(2))  # ... then swap live
            rest = response.read()
        finally:
            conn.close()
        lines = [
            json.loads(line)
            for line in (first + rest).decode().strip().splitlines()
        ]
        assert len(lines) == N_ITEMS
        assert {line["version"] for line in lines} == {pinned}
        assert {line["values"]["Vote"] for line in lines} == {1.0}
        # A fresh dump sees the new version.
        status, _, headers = _get(server.port, "/health")
        assert headers["X-Store-Version"] == "2"

    def test_dump_can_filter_one_method(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request("GET", "/dump?method=AccuSim")
            response = conn.getresponse()
            lines = [
                json.loads(line)
                for line in response.read().decode().strip().splitlines()
            ]
        finally:
            conn.close()
        assert all(set(line["values"]) == {"AccuSim"} for line in lines)

    def test_sse_events_follow_publishes(self, server, store):
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            sock.sendall(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            buffer = b""
            deadline = time.time() + 5
            while b"event: hello" not in buffer and time.time() < deadline:
                buffer += sock.recv(4096)
            assert b"event: hello" in buffer
            store.publish("day0001", _result(2))
            store.publish("day0002", _result(3))
            server.broadcast("day", {"day": "day0002", "rounds": 7})
            wanted = (b'"version": 2', b'"version": 3', b'"rounds": 7')
            while (
                not all(marker in buffer for marker in wanted)
                and time.time() < deadline
            ):
                buffer += sock.recv(4096)
        finally:
            sock.close()
        text = buffer.decode()
        assert '"version": 2' in text and '"version": 3' in text
        assert "event: day" in text and '"rounds": 7' in text
        # Publish events arrive in version order.
        assert text.index('"version": 2') < text.index('"version": 3')


class TestLivePublishRaces:
    def test_readers_never_see_torn_or_stale_answers(self, store):
        """8 keep-alive clients racing 120 live publishes: every response
        coherent (value == trust == version) and versions never rewind."""
        publishes = 120
        clients = 8
        errors = []
        stop = threading.Event()

        def reader():
            conn = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=5
            )
            last_version = 0
            try:
                while not stop.is_set():
                    conn.request(
                        "GET", "/lookup?object=o5&attribute=price"
                    )
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    if response.status != 200:
                        errors.append(("status", response.status, body))
                        return
                    if body["value"] != float(body["version"]):
                        errors.append(("torn", body))
                        return
                    if body["version"] < last_version:
                        errors.append(
                            ("rewind", last_version, body["version"])
                        )
                        return
                    last_version = body["version"]
                    conn.request("GET", "/trust?source=s1")
                    response = conn.getresponse()
                    trust = json.loads(response.read())
                    if trust["trust"] != float(trust["version"]):
                        errors.append(("torn trust", trust))
                        return
            except OSError as error:
                if not stop.is_set():
                    errors.append(("connection", repr(error)))
            finally:
                conn.close()

        with run_in_thread(store) as handle:
            port = handle.port
            threads = [
                threading.Thread(target=reader) for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            for version in range(2, publishes + 2):
                store.publish(f"day{version:04d}", _result(version))
                time.sleep(0.001)
            stop.set()
            for thread in threads:
                thread.join(10)
        assert not errors, errors[:3]
        assert store.version == publishes + 1

    def test_monotonic_store_rejects_stale_republish_under_server(self, store):
        from repro.errors import StalePublishError

        with run_in_thread(store):
            store.publish("day0005", _result(5))
            with pytest.raises(StalePublishError):
                store.publish("day0001", _result(9))
            assert store.day == "day0005"
