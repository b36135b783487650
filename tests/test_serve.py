"""Tests for the simulation job server (docs/serving.md).

The contract under test:

* **Protocol** — requests normalize through the same
  :func:`~repro.harness.parallel.job_key` as batch sweeps: identity
  over the wire is identity on disk.
* **Dedupe** — N identical concurrent submissions run exactly one
  simulation and every waiter gets a bit-identical record; the shared
  cache serves warm keys without simulating.
* **Admission control** — beyond ``max_inflight`` distinct jobs,
  submissions shed with :class:`SaturatedError` (HTTP 503 +
  ``Retry-After``).
* **Resilience** — injected worker crashes in server mode recover
  through the RetryPolicy with records identical to a clean run.
* **Transport** — the threaded stdlib HTTP layer (one thread per
  connection) and the thin client round-trip submissions, blocking
  results and NDJSON event streams; malformed, oversized, stalled and
  disconnecting clients get a JSON error or are dropped, and neither
  they nor long polls hold up anyone else.
"""

import json
import re
import socket
import struct
import threading
import time

import pytest

from repro.core.config import SimulationConfig
from repro.harness.parallel import ResultCache, SimJob, execute_job, job_key
from repro.harness.resilient import RetryPolicy
from repro.serve.broker import JobBroker, SaturatedError, serve_execute_job
from repro.serve.client import (
    RequestRejected,
    ServeClient,
    ServerSaturated,
)
from repro.serve.protocol import (
    MAX_JOBS_PER_REQUEST,
    RequestError,
    build_config,
    decode_event,
    encode_event,
    normalize_request,
)
from repro.serve.server import MAX_BODY_BYTES, ServerThread, _Handler

from .chaos import ChaosConfig, ChaosRule

BASE = {
    "width": 3,
    "height": 3,
    "warmup_packets": 10,
    "measure_packets": 60,
    "injection_rate": 0.08,
}

#: Fast supervision for synthetic-job tests: no backoff, no structural
#: validation (synthetic records are not full simulation records).
FAST = RetryPolicy(backoff_base=0.0, validate=False)


def small_config(**overrides) -> SimulationConfig:
    params = dict(BASE)
    params.update(overrides)
    return SimulationConfig(**params)


def small_job(**overrides) -> SimJob:
    return SimJob.of(small_config(**overrides))


class TestProtocol:
    def test_experiment_key_matches_batch_key(self):
        """Identity over the wire == identity on disk."""
        request = normalize_request(
            {"kind": "experiment", "config": dict(BASE)}
        )
        assert len(request.jobs) == 1
        assert job_key(request.jobs[0]) == job_key(small_job())

    def test_rate_and_size_sugar(self):
        config = build_config({"size": 4, "rate": 0.25})
        assert config.width == 4 and config.height == 4
        assert config.injection_rate == 0.25

    def test_sweep_expands_rate_seed_grid(self):
        request = normalize_request(
            {
                "kind": "sweep",
                "base": dict(BASE),
                "rates": [0.05, 0.1],
                "seeds": [1, 2, 3],
            }
        )
        assert request.kind == "sweep"
        assert len(request.jobs) == 6
        keys = {job_key(job) for job in request.jobs}
        assert len(keys) == 6  # all distinct points
        assert job_key(small_job(injection_rate=0.05, seed=1)) in keys

    def test_campaign_sampled_schedule(self):
        request = normalize_request(
            {
                "kind": "campaign",
                "config": dict(BASE),
                "mtbf": 500.0,
                "faults": 1,
            }
        )
        (job,) = request.jobs
        assert job.schedule is not None
        assert job_key(job) != job_key(small_job())

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([1, 2], "JSON object"),
            ({"kind": "nope"}, "unknown request kind"),
            ({"config": {"bogus_field": 1}}, "unknown config field"),
            ({"config": {"width": -3}}, "bad config"),
            ({"config": {"drain_timeout": -1, "size": 3}}, "drain_timeout"),
            ({"config": {"traffic": "shuffle", "size": 3}}, "power-of-two"),
            ({"config": {"traffic": "bogus"}}, "unknown traffic pattern"),
            ({"config": {"injection_rate": 0}}, "injection rate"),
            (
                {"kind": "sweep", "base": {}, "rates": [0.0, 0.1]},
                "injection rate",
            ),
            (
                {"kind": "campaign", "config": {}, "schedule": [], "mtbf": 1.0},
                "not both",
            ),
            ({"kind": "campaign", "config": {}}, "needs a 'schedule'"),
            ({"kind": "sweep", "base": {}, "rates": []}, "non-empty list"),
            # Integer fields take integers only: each of these once
            # passed and then failed inside the engine, or ran a
            # fractional budget under its own job key.
            ({"config": {"size": 4, "flits_per_packet": 2.0}}, "flits_per_packet"),
            ({"config": {"max_cycles": float("inf")}}, "max_cycles"),
            ({"config": {"measure_packets": 20.5}}, "measure_packets"),
            ({"config": {"seed": "3"}}, "seed"),
            ({"kind": "sweep", "base": {}, "seeds": [1, 2.5]}, "seed"),
            # The rate is a number: a ``true`` rate once ran at 1.0
            # under a job key of its own.
            ({"config": {"size": 3, "rate": True}}, "injection_rate"),
            ({"config": {"size": 3, "rate": "0.1"}}, "injection_rate"),
            ({"kind": "sweep", "base": {}, "rates": [0.1, True]}, "injection_rate"),
            # The tile engine is kept for the benchmark only.
            ({"config": {"shards": "2x2"}}, "unknown config field 'shards'"),
        ],
    )
    def test_malformed_requests_rejected(self, payload, match):
        with pytest.raises(RequestError, match=match):
            normalize_request(payload)

    def test_an_integer_rate_shares_the_float_rates_job_key(self):
        def key(rate):
            request = normalize_request({"config": {"size": 3, "rate": rate}})
            return job_key(request.jobs[0])

        assert key(1) == key(1.0)

    def test_oversized_request_rejected(self):
        with pytest.raises(RequestError, match="split it"):
            normalize_request(
                {
                    "kind": "sweep",
                    "base": dict(BASE),
                    "rates": [i / 1000 for i in range(1, 30)],
                    "seeds": list(range(10)),
                }
            )
        assert 29 * 10 > MAX_JOBS_PER_REQUEST

    def test_oversized_sweep_is_refused_before_it_is_built(self, monkeypatch):
        built = []

        def build(config):
            # Raise at once: expanding 10^8 points first would not end.
            built.append(config)
            raise AssertionError("a config was built")

        monkeypatch.setattr(SimulationConfig, "__post_init__", build)
        with pytest.raises(RequestError, match="100000000 jobs"):
            normalize_request(
                {
                    "kind": "sweep",
                    "base": dict(BASE),
                    "rates": [0.1] * 10_000,
                    "seeds": list(range(10_000)),
                }
            )
        assert built == []

    def test_event_round_trip(self):
        event = {"event": "queued", "key": "k", "seq": 3}
        line = encode_event(event)
        assert line.endswith(b"\n")
        assert decode_event(line) == event


class TestBrokerDedupe:
    def test_n_threads_one_execution_identical_results(self):
        """Satellite: the same-key race — N concurrent submissions call
        the job function exactly once and all see the same record."""
        gate = threading.Event()
        calls: list[str] = []
        calls_lock = threading.Lock()

        def counting_fn(job, index, attempt):
            with calls_lock:
                calls.append(job_key(job))
            gate.wait(timeout=30)
            return {"answer": 42}

        n = 8
        barrier = threading.Barrier(n)
        tickets = [None] * n
        with JobBroker(workers=1, policy=FAST, job_fn=counting_fn) as broker:

            def submit(slot: int) -> None:
                barrier.wait(timeout=10)
                tickets[slot] = broker.submit(small_job())

            threads = [
                threading.Thread(target=submit, args=(slot,))
                for slot in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            gate.set()
            records = [t.future.result(timeout=30) for t in tickets]

            assert len(calls) == 1, f"{len(calls)} executions for {n} submits"
            assert records == [{"answer": 42}] * n
            assert broker.simulations_run == 1
            assert broker.coalesced == n - 1
            assert sum(1 for t in tickets if not t.coalesced) == 1

    def test_resubmission_after_settle_served_from_memory(self):
        with JobBroker(
            workers=1, policy=FAST, job_fn=lambda job, *_: {"v": 1}
        ) as broker:
            first = broker.submit(small_job())
            assert first.future.result(timeout=30) == {"v": 1}
            again = broker.submit(small_job())
            assert again.cached and not again.coalesced
            assert again.future.result(timeout=0) == {"v": 1}
            assert broker.simulations_run == 1

    def test_warm_cache_serves_without_simulating(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = small_job()
        cache.store(job_key(job), {"v": "warm"})
        with JobBroker(
            cache=cache, workers=1, policy=FAST, job_fn=lambda j, *_: {"v": "cold"}
        ) as broker:
            ticket = broker.submit(job)
            assert ticket.cached
            assert ticket.future.result(timeout=30) == {"v": "warm"}
            assert broker.simulations_run == 0
        assert cache.hits == 1

    def test_distinct_jobs_both_execute(self):
        with JobBroker(
            workers=1,
            policy=FAST,
            job_fn=lambda job, *_: {"seed": job.config.seed},
        ) as broker:
            a = broker.submit(small_job(seed=1))
            b = broker.submit(small_job(seed=2))
            assert a.future.result(timeout=30) == {"seed": 1}
            assert b.future.result(timeout=30) == {"seed": 2}
            assert broker.simulations_run == 2
            assert broker.coalesced == 0

    def test_completed_simulation_stored_in_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        with JobBroker(
            cache=cache, workers=1, policy=FAST, job_fn=lambda j, *_: {"v": 9}
        ) as broker:
            ticket = broker.submit(small_job())
            assert ticket.future.result(timeout=30) == {"v": 9}
        assert cache.lookup(job_key(small_job())) == {"v": 9}
        assert cache.stores == 1


    def test_refused_store_keeps_the_broker_serving(self, tmp_path, refusing_disk):
        """A cache store the disk refuses must not kill the pump thread:
        the ticket and every later one still resolve."""
        cache = ResultCache(tmp_path)
        with JobBroker(
            cache=cache, workers=1, policy=FAST,
            job_fn=lambda job, *_: {"seed": job.config.seed},
        ) as broker:
            for seed in (1, 2):
                ticket = broker.submit(small_job(seed=seed))
                assert ticket.future.result(timeout=30) == {"seed": seed}
            assert broker.status()["cache"]["failed_stores"] == 2
        assert cache.stores == 0


class TestBrokerAdmission:
    def test_saturation_sheds_and_recovers(self):
        gate = threading.Event()

        def gated_fn(job, index, attempt):
            gate.wait(timeout=30)
            return {"seed": job.config.seed}

        with JobBroker(
            workers=1, policy=FAST, max_inflight=1, job_fn=gated_fn
        ) as broker:
            first = broker.submit(small_job(seed=1))
            with pytest.raises(SaturatedError) as excinfo:
                broker.submit(small_job(seed=2))
            assert excinfo.value.in_flight == 1
            assert excinfo.value.limit == 1
            assert excinfo.value.retry_after > 0
            assert broker.shed == 1
            # A full server still coalesces: identical keys don't count
            # against the in-flight limit.
            dup = broker.submit(small_job(seed=1))
            assert dup.coalesced
            gate.set()
            assert first.future.result(timeout=30) == {"seed": 1}
            # Capacity freed: the shed job now admits.
            retry = broker.submit(small_job(seed=2))
            assert retry.future.result(timeout=30) == {"seed": 2}

    def test_submit_request_reports_partial_shed(self):
        gate = threading.Event()

        def gated_fn(job, index, attempt):
            gate.wait(timeout=30)
            return {"ok": True}

        with JobBroker(
            workers=1, policy=FAST, max_inflight=2, job_fn=gated_fn
        ) as broker:
            reply = broker.submit_request(
                {
                    "kind": "sweep",
                    "base": dict(BASE),
                    "rates": [0.05, 0.1, 0.15, 0.2],
                    "seeds": [1],
                }
            )
            assert reply["shed_after"] == 2
            assert reply["total_jobs"] == 4
            assert len(reply["jobs"]) == 2
            gate.set()

    def test_max_inflight_must_be_positive(self):
        with pytest.raises(ValueError):
            JobBroker(max_inflight=0)


class TestBrokerEvents:
    def test_event_sequence_and_resumable_reads(self):
        with JobBroker(
            workers=1, policy=FAST, job_fn=lambda job, *_: {"v": 1}
        ) as broker:
            ticket = broker.submit(small_job())
            ticket.future.result(timeout=30)
            events, terminal = broker.events_after(ticket.key, -1, timeout=5.0)
            kinds = [e["event"] for e in events]
            assert kinds[0] == "queued"
            assert kinds[-1] == "completed"
            assert "running" in kinds
            assert terminal
            seqs = [e["seq"] for e in events]
            assert seqs == sorted(seqs)
            assert all(e["key"] == ticket.key for e in events)
            # Resume past the end: empty batch, still terminal.
            tail, terminal = broker.events_after(
                ticket.key, seqs[-1], timeout=0.0
            )
            assert tail == [] and terminal
            # Resume mid-stream: only fresh events.
            middle, _ = broker.events_after(ticket.key, seqs[0], timeout=0.0)
            assert [e["seq"] for e in middle] == seqs[1:]

    def test_unknown_key_is_none(self):
        with JobBroker(workers=1, policy=FAST) as broker:
            assert broker.events_after("missing", -1, timeout=0.0) is None
            assert broker.entry_state("missing") is None
            assert broker.result("missing", timeout=0.0) is None

    def test_status_snapshot_shape(self):
        with JobBroker(
            workers=1, policy=FAST, job_fn=lambda job, *_: {"v": 1}
        ) as broker:
            broker.submit(small_job()).future.result(timeout=30)
            status = broker.status()
            assert status["mode"] == "inline"
            assert status["simulations_run"] == 1
            assert status["requests"] == 1
            assert status["in_flight"] == []
            assert status["in_flight_limit"] == 64
            assert set(status["execution"]) >= {
                "retries",
                "failures",
                "worker_crashes",
            }
            assert status["cache"] is None
            assert status["worker_liveness"] == []

    def test_shutdown_fails_pending_jobs(self):
        gate = threading.Event()

        def gated_fn(job, index, attempt):
            gate.wait(timeout=30)
            return {"ok": True}

        broker = JobBroker(workers=1, policy=FAST, job_fn=gated_fn)
        broker.start()
        blocked = broker.submit(small_job(seed=1))
        queued = broker.submit(small_job(seed=2))
        gate.set()
        broker.close()
        # The running job may or may not settle before close; the queued
        # one must resolve one way or the other — never hang.
        for ticket in (blocked, queued):
            try:
                ticket.future.result(timeout=5)
            except RuntimeError as exc:
                assert "shut down" in str(exc)
        with pytest.raises(RuntimeError, match="closed"):
            broker.submit(small_job(seed=3))


class TestInlineRetryRecovery:
    def test_transient_chaos_retried_inline(self):
        chaos = ChaosConfig(
            rules=(ChaosRule(kind="transient", indices=None, attempts=(0,)),),
            job_fn=serve_execute_job,
        )
        with JobBroker(
            workers=1,
            policy=RetryPolicy(max_retries=2, backoff_base=0.0),
            job_fn=chaos,
        ) as broker:
            ticket = broker.submit(small_job())
            record = ticket.future.result(timeout=120)
        assert record == execute_job(small_job())
        assert broker.stats.retries >= 1
        events, _ = broker.events_after(ticket.key, -1, timeout=0.0)
        kinds = [e["event"] for e in events]
        assert "retry" in kinds
        assert kinds[-1] == "completed"


class TestPooledCrashRecoveryAcceptance:
    def test_concurrent_dedupe_with_injected_crashes(self, tmp_path):
        """The PR's acceptance bar, in-process: two identical + one
        distinct concurrent submissions on a crash-chaos worker pool run
        exactly two simulations, recover every injected crash, and hand
        all waiters records bit-identical to a clean serial run."""
        chaos = ChaosConfig(
            rules=(ChaosRule(kind="crash", indices=None),),
            job_fn=serve_execute_job,
        )
        baseline_a = execute_job(small_job(seed=3))
        baseline_b = execute_job(small_job(seed=4))
        with JobBroker(
            cache=ResultCache(tmp_path),
            workers=2,
            policy=RetryPolicy(max_retries=3, backoff_base=0.0),
            job_fn=chaos,
        ) as broker:
            assert broker.mode == "pooled"
            barrier = threading.Barrier(3)
            tickets = [None] * 3
            jobs = [
                small_job(seed=3),
                small_job(seed=3),
                small_job(seed=4),
            ]

            def submit(slot: int) -> None:
                barrier.wait(timeout=10)
                tickets[slot] = broker.submit(jobs[slot])

            threads = [
                threading.Thread(target=submit, args=(slot,))
                for slot in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            records = [t.future.result(timeout=180) for t in tickets]

            assert records[0] == records[1] == baseline_a
            assert records[2] == baseline_b
            assert broker.simulations_run == 2
            assert broker.coalesced == 1
            assert (
                broker.stats.worker_crashes + broker.stats.retries >= 2
            ), "injected crashes were not recovered"

            # Over HTTP, on the same broker: the stream of a job whose
            # first attempt crashed ends in ``completed``, and a warm
            # resubmission is answered without a third simulation.
            with ServerThread(broker) as url:
                client = ServeClient(url)
                kinds = [e["event"] for e in client.events(tickets[0].key)]
                assert kinds[-1] == "completed"
                assert "retry" in kinds or broker.stats.worker_crashes >= 1
                (again,) = client.submit(
                    {"kind": "experiment", "config": dict(BASE, seed=3)}
                )["jobs"]
                assert again["key"] == tickets[0].key and again["cached"]
                assert client.result(again["key"], timeout=30) == baseline_a
                assert client.status()["simulations_run"] == 2


class HttpFixture:
    """One gated synthetic broker behind a real HTTP server."""

    def __init__(self, tmp_path=None, **broker_kwargs):
        self.gate = threading.Event()
        self.gate.set()  # default: jobs complete immediately

        def job_fn(job, index, attempt):
            self.gate.wait(timeout=30)
            return {"seed": job.config.seed, "rate": job.config.injection_rate}

        kwargs = {"workers": 1, "policy": FAST, "job_fn": job_fn}
        kwargs.update(broker_kwargs)
        self.broker = JobBroker(**kwargs)
        self.server = ServerThread(self.broker)

    def __enter__(self):
        self.broker.start()
        url = self.server.__enter__()
        return self, ServeClient(url)

    def __exit__(self, *exc):
        self.server.__exit__(*exc)
        self.broker.close()


class TestHttpTransport:
    def test_health_status_submit_result_roundtrip(self):
        with HttpFixture() as (fixture, client):
            assert client.healthy()
            reply = client.submit(
                {"kind": "experiment", "config": dict(BASE, seed=5)}
            )
            assert reply["total_jobs"] == 1
            (jobinfo,) = reply["jobs"]
            # Identity over the wire is identity on disk.
            assert jobinfo["key"] == job_key(small_job(seed=5))
            record = client.result(jobinfo["key"], timeout=30)
            assert record == {"seed": 5, "rate": 0.08}
            status = client.status()
            assert status["simulations_run"] == 1
            assert status["mode"] == "inline"

    def test_identical_http_submissions_coalesce(self):
        with HttpFixture() as (fixture, client):
            fixture.gate.clear()
            request = {"kind": "experiment", "config": dict(BASE, seed=7)}
            first = client.submit(request)
            second = client.submit(request)
            assert first["jobs"][0]["key"] == second["jobs"][0]["key"]
            assert second["jobs"][0]["coalesced"]
            fixture.gate.set()
            record = client.result(first["jobs"][0]["key"], timeout=30)
            assert record["seed"] == 7
            assert client.status()["simulations_run"] == 1

    def test_event_stream_over_http(self):
        with HttpFixture() as (fixture, client):
            reply = client.submit(
                {"kind": "experiment", "config": dict(BASE, seed=9)}
            )
            key = reply["jobs"][0]["key"]
            client.result(key, timeout=30)
            events = list(client.events(key))
            kinds = [e["event"] for e in events]
            assert kinds[0] == "queued"
            assert kinds[-1] == "completed"
            assert all(e["key"] == key for e in events)
            # wait() replays the stream and returns the record.
            assert client.wait(key, timeout=30)["seed"] == 9

    def test_bad_requests_rejected_with_400(self):
        with HttpFixture() as (fixture, client):
            with pytest.raises(RequestRejected, match="unknown config field"):
                client.submit({"config": {"bogus": 1}})
            with pytest.raises(RequestRejected, match="unknown request kind"):
                client.submit({"kind": "nope"})
            with pytest.raises(RequestRejected, match="injection_rate"):
                client.submit({"config": {"size": 3, "rate": True}})

    def test_unknown_key_404(self):
        from repro.serve.client import ServeClientError

        with HttpFixture() as (fixture, client):
            with pytest.raises(ServeClientError) as excinfo:
                client.result("feedfacedeadbeef", timeout=1)
            assert excinfo.value.status == 404
            with pytest.raises(ServeClientError) as excinfo:
                list(client.events("feedfacedeadbeef"))
            assert excinfo.value.status == 404

    def test_saturated_http_submission_sheds_503(self):
        with HttpFixture(max_inflight=1) as (fixture, client):
            fixture.gate.clear()
            client.submit({"kind": "experiment", "config": dict(BASE, seed=1)})
            with pytest.raises(ServerSaturated) as excinfo:
                client.submit(
                    {"kind": "experiment", "config": dict(BASE, seed=2)}
                )
            assert excinfo.value.retry_after > 0
            fixture.gate.set()

    def test_result_timeout_returns_202_state(self):
        with HttpFixture() as (fixture, client):
            fixture.gate.clear()
            reply = client.submit(
                {"kind": "experiment", "config": dict(BASE, seed=1)}
            )
            key = reply["jobs"][0]["key"]
            with pytest.raises(TimeoutError, match="not settled"):
                client.result(key, timeout=0.5)
            fixture.gate.set()
            assert client.result(key, timeout=30)["seed"] == 1

    @pytest.mark.parametrize(
        "request_bytes, code",
        [
            (b"garbage\r\n\r\n", 400),
            (b"POST /submit HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST /submit HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (
                b"POST /submit HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (MAX_BODY_BYTES + 1),
                413,
            ),
            (b"POST /submit HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", 400),
            (b"POST /submit HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!", 400),
            (b"GET /submit HTTP/1.1\r\n\r\n", 405),
        ],
        ids=[
            "garbage-request-line",
            "negative-length",
            "non-numeric-length",
            "oversized-length",
            "short-body",
            "body-not-json",
            "get-submit",
        ],
    )
    def test_boundary_request_gets_a_json_error(self, request_bytes, code, capfd):
        with HttpFixture() as (fixture, client):
            with connect(client) as sock:
                sock.sendall(request_bytes)
                sock.shutdown(socket.SHUT_WR)
                assert json_reply(sock) == code
            assert client.healthy()
        assert "Traceback" not in capfd.readouterr().err

    def test_a_stalled_body_is_answered_408(self, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        with HttpFixture() as (fixture, client):
            with connect(client) as sock:
                sock.sendall(b"POST /submit HTTP/1.1\r\nContent-Length: 10\r\n\r\n{")
                assert json_reply(sock) == 408
            assert client.healthy()

    def test_a_dropped_event_stream_leaves_the_server_serving(self, capfd):
        with HttpFixture() as (fixture, client):
            fixture.gate.clear()
            request = {"kind": "experiment", "config": dict(BASE, seed=3)}
            key = client.submit(request)["jobs"][0]["key"]
            with connect(client) as sock:
                sock.sendall(b"GET /events/%s HTTP/1.1\r\n\r\n" % key.encode())
                assert re.match(rb"HTTP/1\.[01] 200 ", sock.recv(65536))
                # Close with a reset, so the server's next write fails.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            fixture.gate.set()
            assert client.result(key, timeout=30)["seed"] == 3
            assert [e["event"] for e in client.events(key)][-1] == "completed"
            deadline = time.monotonic() + 10
            while handler_threads() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert handler_threads() == 0
            assert client.healthy()
        assert "Traceback" not in capfd.readouterr().err

    def test_a_partial_request_head_does_not_delay_other_clients(self):
        with HttpFixture() as (fixture, client):
            with connect(client) as stalled:
                stalled.sendall(b"POST /submit HTTP/1.1\r\nContent-Le")
                started = time.monotonic()
                assert client.healthy()
                assert time.monotonic() - started < 2.0

    def test_long_polls_do_not_starve_other_clients(self):
        """More long polls than any default executor has threads: each
        blocks only its own connection."""
        with HttpFixture() as (fixture, client):
            fixture.gate.clear()
            request = {"kind": "experiment", "config": dict(BASE, seed=1)}
            key = client.submit(request)["jobs"][0]["key"]
            records = []
            pollers = [
                threading.Thread(
                    target=lambda: records.append(client.result(key, timeout=10))
                )
                for _ in range(33)
            ]
            for poller in pollers:
                poller.start()
            time.sleep(0.5)  # every poll reaches the server
            started = time.monotonic()
            client.status()
            status_s = time.monotonic() - started
            started = time.monotonic()
            client.submit({"kind": "experiment", "config": dict(BASE, seed=2)})
            submit_s = time.monotonic() - started
            fixture.gate.set()
            for poller in pollers:
                poller.join(timeout=30)
            assert status_s < 2.0 and submit_s < 2.0, (status_s, submit_s)
            assert records == [{"seed": 1, "rate": 0.08}] * 33

    def test_stop_waits_for_a_request_in_flight(self):
        with HttpFixture() as (fixture, client):
            fixture.gate.clear()
            request = {"kind": "experiment", "config": dict(BASE, seed=4)}
            key = client.submit(request)["jobs"][0]["key"]
            with connect(client) as sock:
                poll = b"GET /result/%s?timeout=1 HTTP/1.1\r\n\r\n" % key.encode()
                sock.sendall(poll)
                time.sleep(0.2)  # the poll reaches the broker
                fixture.server.stop()
                assert handler_threads() == 0
                assert re.match(rb"HTTP/1\.[01] 202 ", sock.recv(65536))
            fixture.gate.set()

    def test_an_ipv6_host_round_trips(self):
        try:
            with socket.socket(socket.AF_INET6) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback")
        fixture = HttpFixture()
        fixture.server = ServerThread(fixture.broker, host="::1")
        with fixture as (fixture, client):
            assert fixture.server.url.startswith("http://[::1]:")
            request = {"kind": "experiment", "config": dict(BASE, seed=6)}
            key = client.submit(request)["jobs"][0]["key"]
            assert client.result(key, timeout=30) == {"seed": 6, "rate": 0.08}


def connect(client: ServeClient) -> socket.socket:
    return socket.create_connection((client.host, client.port), timeout=10)


def json_reply(sock: socket.socket) -> int:
    """Read one reply to its end: its status code, after checking that it
    has a status line and a JSON body naming the error."""
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = re.match(rb"HTTP/1\.[01] (\d{3}) ", head)
    assert status is not None, head
    assert "error" in json.loads(body)
    return int(status[1])


def handler_threads() -> int:
    """Connections the server is still answering."""
    return sum("process_request_thread" in t.name for t in threading.enumerate())
