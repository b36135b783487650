"""``python -m repro serve`` — run or probe the job server.

Server::

    python -m repro serve --workers 4 --cache-dir ~/.cache/repro \
        --port 8650 --max-retries 2 --job-timeout 300

Client conveniences (thin wrappers over :mod:`repro.serve.client`)::

    python -m repro serve status --url http://127.0.0.1:8650
    python -m repro serve submit --url http://127.0.0.1:8650 \
        '{"kind": "experiment", "config": {"router": "roco", "rate": 0.1}}'

The dedupe and recovery contract — two identical and one distinct
concurrent requests on a worker pool whose every first attempt crashes
run exactly two simulations, coalesce under the key a batch sweep
computes, and hand every client bit-identical records — is
``tests/test_serve.py::TestPooledCrashRecoveryAcceptance``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.harness.parallel import open_cache
from repro.harness.resilient import RetryPolicy
from repro.serve.broker import JobBroker
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.server import run_server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Simulation-as-a-service job server (docs/serving.md)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8650, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (0 = all cores; default serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk result cache shared with batch sweeps",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and always simulate",
    )
    parser.add_argument("--max-retries", type=int, default=None, metavar="N")
    parser.add_argument("--job-timeout", type=float, default=None, metavar="SECONDS")
    parser.add_argument(
        "--speculative",
        action="store_true",
        help="re-execute stragglers speculatively on idle workers",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admission-control bound on distinct in-flight jobs",
    )
    return parser


def _build_broker(args) -> JobBroker:
    """The broker the flags describe; ValueError for a bad flag value."""
    policy_kwargs: dict = {"speculative": args.speculative}
    if args.max_retries is not None:
        policy_kwargs["max_retries"] = args.max_retries
    if args.job_timeout is not None:
        policy_kwargs["job_timeout"] = args.job_timeout
    policy = RetryPolicy(**policy_kwargs)
    return JobBroker(
        cache=open_cache(args.cache_dir, args.no_cache),
        workers=args.workers,
        policy=policy,
        max_inflight=args.max_inflight,
    )


def _listen(args) -> int:
    try:
        broker = _build_broker(args)
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    with broker:
        print(
            f"serve: {broker.mode} mode, {broker.workers} worker(s), "
            f"max {broker.max_inflight} in flight"
            + (
                f", cache at {broker.cache.directory}"
                if broker.cache is not None
                else ""
            ),
            file=sys.stderr,
        )
        run_server(broker, host=args.host, port=args.port)
    return 0


# -- client subcommands ------------------------------------------------


def _client_status(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="repro serve status")
    parser.add_argument("--url", default="http://127.0.0.1:8650")
    args = parser.parse_args(argv)
    print(json.dumps(ServeClient(args.url).status(), indent=2, sort_keys=True))
    return 0


def _client_submit(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="repro serve submit")
    parser.add_argument("--url", default="http://127.0.0.1:8650")
    parser.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS")
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job keys and return without waiting for records",
    )
    parser.add_argument(
        "request",
        help="request JSON (or @FILE), e.g. "
        '\'{"kind": "experiment", "config": {"rate": 0.1}}\'',
    )
    args = parser.parse_args(argv)
    text = args.request
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as handle:
            text = handle.read()
    try:
        payload = json.loads(text)
    except ValueError as exc:
        print(
            f"repro serve submit: error: request is not valid JSON: {exc}",
            file=sys.stderr,
        )
        return 2
    client = ServeClient(args.url)
    reply = client.submit_with_backoff(payload)
    if args.no_wait:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    for jobinfo in reply["jobs"]:
        record = client.result(jobinfo["key"], timeout=args.timeout)
        print(json.dumps(record, sort_keys=True))
    return 0


#: ``python -m repro serve NAME ...``: the client subcommands.
CLIENT_COMMANDS = {"status": _client_status, "submit": _client_submit}


def serve_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = CLIENT_COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _listen(build_parser().parse_args(argv))
    try:
        return command(argv[1:])
    except (OSError, ServeClientError) as exc:
        # No server at --url, or one that refused the request: the
        # command line cannot be run (exit 2), which is not a traceback.
        print(f"repro serve {argv[0]}: error: {exc}", file=sys.stderr)
        return 2
