"""HTTP front end of the simulation job server.

The stdlib's ``http.server`` (the repo avoids new runtime dependencies):
a ``ThreadingHTTPServer`` gives every connection a thread of its own,
and one handler calls the broker directly, so a long poll blocks only
its own client; the broker's locks make the calls safe.  One request
per connection, JSON bodies.  The endpoints — ``POST /submit``,
``GET /result/<key>``, ``/events/<key>``, ``/status`` and ``/healthz`` —
and their status codes are documented in docs/serving.md.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.serve.broker import JobBroker, SaturatedError
from repro.serve.protocol import RequestError, encode_event

#: Bound on a request body we are willing to buffer.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Seconds one socket read may wait: a client stalled inside its request
#: head is disconnected, one stalled inside its body is answered 408.
REQUEST_TIMEOUT = 30.0
#: Seconds ``ServerThread.stop`` waits for requests still being answered.
STOP_GRACE = 10.0
#: What a socket failure looks like: the client went away or stalled.
_CLIENT_GONE = (ConnectionError, TimeoutError)


class _Handler(BaseHTTPRequestHandler):
    """One request; ``self.server.broker`` answers it."""

    # Without it a request line too garbled to name a version is
    # answered with a bare HTTP/0.9 body and no status line.
    default_request_version = "HTTP/1.0"
    timeout = REQUEST_TIMEOUT

    def log_message(self, format, *args) -> None:
        pass

    def handle(self) -> None:
        try:
            super().handle()
        except _CLIENT_GONE:
            pass  # nothing to answer

    def send_error(self, code, message=None, explain=None) -> None:
        self._send_json(code, {"error": message or self.responses[code][0]})

    def _send_json(
        self, code: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:
        url = urlsplit(self.path)
        path = url.path.rstrip("/") or "/"
        query = {name: values[-1] for name, values in parse_qs(url.query).items()}
        try:
            self._route(path, query)
        except _CLIENT_GONE:
            raise
        except Exception as exc:  # e.g. shutdown mid-wait
            self.send_error(500, f"{type(exc).__name__}: {exc}")

    do_POST = do_GET

    def _route(self, path: str, query: dict) -> None:
        if path == "/submit":
            if self.command == "POST":
                self._submit()
            else:
                self.send_error(405, "submit is POST-only")
        elif self.command != "GET":
            self.send_error(404, f"no route {path}")
        elif path == "/healthz":
            self._send_json(200, {"ok": True})
        elif path == "/status":
            self._send_json(200, self.server.broker.status())
        elif path.startswith("/result/"):
            self._result(path[len("/result/") :], query)
        elif path.startswith("/events/"):
            self._events(path[len("/events/") :], query)
        else:
            self.send_error(404, f"no route {path}")

    def _body(self) -> bytes | None:
        """The request body, or None once its error has been answered."""
        text = self.headers.get("Content-Length", "0")
        length = int(text) if text.strip().isdecimal() else -1
        if length < 0:
            self.send_error(400, f"bad Content-Length {text!r}")
            return None
        if length > MAX_BODY_BYTES:
            self.send_error(413, "request body too large")
            return None
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self.send_error(408, "request timed out")
            return None
        if len(body) < length:
            self.send_error(400, f"body ended after {len(body)} of {length} bytes")
            return None
        return body

    def _submit(self) -> None:
        body = self._body()
        if body is None:
            return
        try:
            payload = json.loads(body) if body else {}
        except ValueError:
            self.send_error(400, "request body is not valid JSON")
            return
        try:
            reply = self.server.broker.submit_request(payload)
        except RequestError as exc:
            self.send_error(400, str(exc))
            return
        except SaturatedError as exc:
            self._send_json(
                503,
                {
                    "error": "saturated",
                    "in_flight": exc.in_flight,
                    "limit": exc.limit,
                    "retry_after": exc.retry_after,
                },
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
            return
        if reply.get("shed_after") is not None:
            # Part of the request was admitted before the queue filled;
            # report the partial admission as a shed so the client
            # retries the remainder.
            reply["error"] = "saturated"
            self._send_json(503, reply, headers={"Retry-After": "1"})
            return
        self._send_json(200, reply)

    def _result(self, key: str, query: dict) -> None:
        broker = self.server.broker
        try:
            timeout = float(query.get("timeout", 0.0))
        except ValueError:
            self.send_error(400, "bad timeout")
            return
        state = broker.entry_state(key)
        if state is None:
            self.send_error(404, f"unknown job {key}")
            return
        if "record" not in state and timeout > 0:
            try:
                record = broker.result(key, timeout)
                state = {"key": key, "state": "done", "record": record}
            except TimeoutError:
                state = broker.entry_state(key)
        if state is not None and "record" in state:
            self._send_json(200, state)
        else:
            self._send_json(202, state or {"key": key})

    def _events(self, key: str, query: dict) -> None:
        broker = self.server.broker
        try:
            start = int(query.get("from", -1))
        except ValueError:
            self.send_error(400, "bad from")
            return
        batch = broker.events_after(key, start, 0.0)
        if batch is None:
            self.send_error(404, f"unknown job {key}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        while batch is not None:  # None: trimmed from history mid-stream
            events, terminal = batch
            for event in events:
                self.wfile.write(encode_event(event))
                start = max(start, event["seq"])
            if terminal:
                return
            batch = broker.events_after(key, start, 0.5)


class _Server(ThreadingHTTPServer):
    """The listening socket, in the family ``host`` resolves to (so
    ``::1`` binds too), with the broker and the live request threads."""

    request_queue_size = 100  # listen backlog; the stdlib's is 5

    def __init__(self, broker: JobBroker, host: str, port: int) -> None:
        self.broker = broker
        self.answering: set[threading.Thread] = set()
        found = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)
        self.address_family = found[0][0]
        super().__init__((host, port), _Handler)

    def process_request_thread(self, request, client_address) -> None:
        thread = threading.current_thread()
        self.answering.add(thread)
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.answering.discard(thread)


def _url(host: str, port: int) -> str:
    return f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"


def run_server(
    broker: JobBroker, host: str = "127.0.0.1", port: int = 8650
) -> None:
    """Blocking entry point used by ``python -m repro serve``."""
    with _Server(broker, host, port) as server:
        url = _url(*server.server_address[:2])
        print(f"serve: listening on {url}", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass


class ServerThread:
    """A server on a background thread (tests, smoke, embedding).

    ``with ServerThread(broker) as url:`` yields the base URL with the
    ephemeral port resolved; leaving the context stops the server (see
    ``stop``).  The broker's lifecycle stays with the caller.
    """

    def __init__(
        self, broker: JobBroker, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.broker = broker
        self.host = host
        self.port = port
        self._server: _Server | None = None

    @property
    def url(self) -> str:
        return _url(self.host, self.port)

    def start(self) -> "ServerThread":
        self._server = _Server(self.broker, self.host, self.port)
        self.port = self._server.server_address[1]
        # stop() waits out at most one poll interval (the argument).
        serve = self._server.serve_forever
        threading.Thread(target=serve, args=(0.05,), daemon=True).start()
        return self

    def stop(self) -> None:
        """Stop listening, then wait up to ``STOP_GRACE`` seconds for the
        requests still being answered; a longer poll outlives it."""
        if self._server is None:
            return
        server, self._server = self._server, None
        server.shutdown()  # returns once serve_forever has returned
        server.server_close()
        deadline = time.monotonic() + STOP_GRACE
        for thread in server.answering.copy():
            thread.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> str:
        self.start()
        return self.url

    def __exit__(self, *exc) -> None:
        self.stop()
