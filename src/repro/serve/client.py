"""Thin blocking client for the simulation job server.

Stdlib-only (``http.client``); each call opens one connection, mirroring
the server's one request per connection.  Typical use::

    client = ServeClient("http://127.0.0.1:8650")
    reply = client.submit({"kind": "experiment",
                           "config": {"router": "roco", "rate": 0.1}})
    key = reply["jobs"][0]["key"]
    for event in client.events(key):      # NDJSON stream, live
        print(event["event"])
    record = client.result(key, timeout=300)

Raises :class:`ServerSaturated` on a 503 load-shed (carrying the
``retry_after`` hint) and :class:`RequestRejected` on a 400, so callers
can implement backoff without parsing bodies.
"""

from __future__ import annotations

import http.client
import json
import time
from collections.abc import Iterator
from urllib.parse import urlsplit

from repro.serve.protocol import decode_event


class ServeClientError(RuntimeError):
    """Base class for client-visible server errors."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(payload.get("error", f"HTTP {status}"))
        self.status = status
        self.payload = payload


class RequestRejected(ServeClientError):
    """The server rejected the request as malformed (HTTP 400)."""


class ServerSaturated(ServeClientError):
    """Admission control shed the request (HTTP 503)."""

    @property
    def retry_after(self) -> float:
        return float(self.payload.get("retry_after", 1.0))


class ServeClient:
    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        parts = urlsplit(base_url)
        if parts.scheme not in ("", "http"):
            raise ValueError("only http:// servers are supported")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 8650
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------

    def _connect(self, timeout: float | None = None) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host,
            self.port,
            timeout=self.timeout if timeout is None else timeout,
        )

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict]:
        conn = self._connect(timeout)
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else None
            )
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        try:
            decoded = json.loads(text) if text else {}
        except ValueError:
            decoded = {"error": f"non-JSON response: {text[:200]!r}"}
        return response.status, decoded

    def _checked(self, status: int, payload: dict) -> dict:
        if status == 400:
            raise RequestRejected(status, payload)
        if status == 503:
            raise ServerSaturated(status, payload)
        if status >= 400:
            raise ServeClientError(status, payload)
        return payload

    # -- API -----------------------------------------------------------

    def healthy(self) -> bool:
        try:
            status, payload = self._request("GET", "/healthz", timeout=5.0)
        except OSError:
            return False
        return status == 200 and payload.get("ok") is True

    def status(self) -> dict:
        return self._checked(*self._request("GET", "/status"))

    def submit(self, request: dict) -> dict:
        """Submit a protocol request; returns the job-key reply."""
        return self._checked(*self._request("POST", "/submit", body=request))

    def submit_with_backoff(self, request: dict, attempts: int = 8) -> dict:
        """Submit, sleeping out ``Retry-After`` on saturation."""
        for attempt in range(attempts):
            try:
                return self.submit(request)
            except ServerSaturated as exc:
                if attempt == attempts - 1:
                    raise
                time.sleep(exc.retry_after)
        raise AssertionError("unreachable")

    def result(self, key: str, timeout: float = 300.0) -> dict:
        """Block server-side until the record (or failure marker) lands."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            # Server-side wait is chunked so one HTTP request never
            # outlives intermediate proxies' idle timeouts.
            chunk = min(remaining, 30.0)
            status, payload = self._request(
                "GET",
                f"/result/{key}?timeout={chunk:g}",
                timeout=chunk + self.timeout,
            )
            payload = self._checked(status, payload)
            if status == 200 and "record" in payload:
                return payload["record"]
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {key} not settled within {timeout:g}s "
                    f"(state {payload.get('state')!r})"
                )

    def events(self, key: str, start: int = -1) -> Iterator[dict]:
        """Stream a job's NDJSON events until its terminal event."""
        conn = self._connect()
        try:
            conn.request("GET", f"/events/{key}?from={start}")
            response = conn.getresponse()
            if response.status != 200:
                text = response.read().decode("utf-8")
                try:
                    payload = json.loads(text)
                except ValueError:
                    payload = {"error": text[:200]}
                self._checked(response.status, payload)
                return
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield decode_event(line)
        finally:
            conn.close()

    def wait(self, key: str, timeout: float = 300.0) -> dict:
        """Follow the event stream to completion; returns the record."""
        deadline = time.monotonic() + timeout
        for event in self.events(key):
            if event["event"] in ("completed", "failed"):
                break
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {key} still running after {timeout:g}s")
        return self.result(key, timeout=max(1.0, deadline - time.monotonic()))
