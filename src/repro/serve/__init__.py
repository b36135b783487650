"""Simulation-as-a-service: job server, broker and client.

``python -m repro serve`` boots a threaded stdlib HTTP server (one thread
per connection) whose requests normalize through the same
:func:`~repro.harness.parallel.job_key` hashing as batch sweeps, so
identical concurrent requests coalesce onto one in-flight simulation and
share one cache entry.  See docs/serving.md.
"""

from repro.serve.broker import JobBroker, SaturatedError, Ticket
from repro.serve.client import (
    RequestRejected,
    ServeClient,
    ServeClientError,
    ServerSaturated,
)
from repro.serve.protocol import (
    MAX_JOBS_PER_REQUEST,
    NormalizedRequest,
    RequestError,
    normalize_request,
)
from repro.serve.server import ServerThread, run_server

__all__ = [
    "JobBroker",
    "SaturatedError",
    "Ticket",
    "ServeClient",
    "ServeClientError",
    "ServerSaturated",
    "RequestRejected",
    "RequestError",
    "NormalizedRequest",
    "normalize_request",
    "MAX_JOBS_PER_REQUEST",
    "ServerThread",
    "run_server",
]
