"""``python -m repro serve`` — run, probe or smoke-test the job server.

Server::

    python -m repro serve --workers 4 --cache-dir ~/.cache/repro \
        --port 8650 --max-retries 2 --job-timeout 300

Client conveniences (thin wrappers over :mod:`repro.serve.client`)::

    python -m repro serve status --url http://127.0.0.1:8650
    python -m repro serve submit --url http://127.0.0.1:8650 \
        '{"kind": "experiment", "config": {"router": "roco", "rate": 0.1}}'

Self-test (used by CI's serve-smoke lane)::

    python -m repro serve --smoke

The smoke boots a real server on an ephemeral port with crash chaos
injected (every job's first attempt dies), fires two identical and one
distinct concurrent client requests, and asserts the dedupe and
recovery contract end to end: exactly two simulations run, the
identical requests coalesce onto one (under the key a batch sweep
computes for the same fields), every client gets bit-identical records,
and the injected crashes are retried transparently.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading

from repro.core.config import SimulationConfig
from repro.harness.parallel import ResultCache, SimJob, job_key
from repro.harness.resilient import RetryPolicy
from repro.serve.broker import JobBroker
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread, run_server


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
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the end-to-end dedupe/recovery self-test and exit",
    )
    return parser


def _build_broker(args, chaos=None) -> JobBroker:
    cache = None
    if args.cache_dir and not args.no_cache:
        cache = ResultCache(args.cache_dir)
    policy_kwargs: dict = {"speculative": args.speculative}
    if args.max_retries is not None:
        policy_kwargs["max_retries"] = args.max_retries
    if args.job_timeout is not None:
        policy_kwargs["job_timeout"] = args.job_timeout
    return JobBroker(
        cache=cache,
        workers=args.workers,
        policy=RetryPolicy(**policy_kwargs),
        chaos=chaos,
        max_inflight=args.max_inflight,
    )


def _serve(args) -> int:
    broker = _build_broker(args)
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
        print(
            f"serve: listening on http://{args.host}:{args.port}",
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
        print(f"error: request is not valid JSON: {exc}", file=sys.stderr)
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


# -- smoke -------------------------------------------------------------


def _smoke() -> int:
    """End-to-end dedupe + crash-recovery self-test (CI serve-smoke)."""
    from repro.harness.chaos import ChaosConfig, ChaosRule

    base = {
        "width": 3,
        "height": 3,
        "warmup_packets": 10,
        "measure_packets": 60,
    }
    same = {"kind": "experiment", "config": dict(base, rate=0.08, seed=3)}
    distinct = {"kind": "experiment", "config": dict(base, rate=0.1, seed=4)}
    # Every job's first attempt crashes its worker; the RetryPolicy must
    # recover both jobs transparently.
    chaos = ChaosConfig(rules=(ChaosRule(kind="crash", indices=None),))

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        broker = JobBroker(
            cache=ResultCache(tmp),
            workers=2,
            policy=RetryPolicy(max_retries=3, backoff_base=0.0),
            chaos=chaos,
            max_inflight=8,
        )
        with broker, ServerThread(broker) as url:
            print(f"smoke: server at {url}, {broker.mode} mode")
            client = ServeClient(url)
            assert client.healthy(), "healthz probe failed"

            barrier = threading.Barrier(3)
            results: dict[int, dict] = {}
            errors: list[BaseException] = []

            def fire(slot: int, request: dict) -> None:
                try:
                    barrier.wait(timeout=10)
                    reply = ServeClient(url).submit(request)
                    key = reply["jobs"][0]["key"]
                    results[slot] = {
                        "reply": reply,
                        "record": ServeClient(url).result(key, timeout=120),
                    }
                except BaseException as exc:  # surfaced below
                    errors.append(exc)
                    barrier.abort()

            threads = [
                threading.Thread(target=fire, args=(slot, request))
                for slot, request in enumerate((same, same, distinct))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            if errors:
                raise errors[0]
            assert len(results) == 3, f"only {len(results)} clients finished"

            status = client.status()
            key_a = results[0]["reply"]["jobs"][0]["key"]
            key_b = results[1]["reply"]["jobs"][0]["key"]
            key_c = results[2]["reply"]["jobs"][0]["key"]
            assert key_a == key_b, "identical requests got different keys"
            # Identity over the wire is identity on disk: the key is the
            # one a batch sweep computes for the same fields.
            local = SimulationConfig.from_payload(
                dict(base, injection_rate=0.08, seed=3)
            )
            assert key_a == job_key(SimJob.of(local)), (
                "server key differs from the locally computed job_key"
            )
            assert key_c != key_a, "distinct requests got the same key"
            assert results[0]["record"] == results[1]["record"], (
                "coalesced clients saw different records"
            )
            assert results[2]["record"] != results[0]["record"]
            sims = status["simulations_run"]
            assert sims == 2, f"expected 2 simulations for 3 requests, got {sims}"
            assert status["coalesced"] == 1, status
            execution = status["execution"]
            recovered = (
                execution["worker_crashes"] + execution["retries"]
            )
            assert recovered >= 2, f"chaos crashes not recovered: {execution}"
            stream = list(ServeClient(url).events(key_a))
            kinds = [event["event"] for event in stream]
            assert kinds[-1] == "completed", kinds
            assert "retry" in kinds or execution["worker_crashes"] >= 1, kinds

            # Warm resubmission: served without a new simulation.
            reply = client.submit(same)
            assert reply["jobs"][0]["cached"], reply
            again = client.result(key_a, timeout=30)
            assert again == results[0]["record"]
            assert client.status()["simulations_run"] == 2

            cache = client.status()["cache"]
            print(
                f"smoke: ok — 3 requests, {sims} simulations, "
                f"{status['coalesced']} coalesced, "
                f"{execution['worker_crashes']} worker crash(es), "
                f"{execution['retries']} retr(ies), cache {cache}"
            )
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["status"]:
        return _client_status(argv[1:])
    if argv[:1] == ["submit"]:
        return _client_submit(argv[1:])
    args = build_parser().parse_args(argv)
    if args.smoke:
        return _smoke()
    return _serve(args)
