"""Wire protocol of the simulation job server (docs/serving.md).

Requests are plain JSON objects; three kinds are accepted:

* ``{"kind": "experiment", "config": {...}}`` — one operating point;
* ``{"kind": "sweep", "base": {...}, "rates": [...], "seeds": [...]}``
  — a rate x seed grid around a base configuration (the CLI's sweep
  mode over HTTP);
* ``{"kind": "campaign", "config": {...}, "schedule": [...]}`` or
  ``{"kind": "campaign", "config": {...}, "mtbf": C, "faults": N}`` —
  a runtime fault campaign, either with an explicit
  :class:`~repro.faults.schedule.FaultSchedule` payload or sampled
  arrivals (see docs/fault-model.md).

Every request normalizes to a list of
:class:`~repro.harness.parallel.SimJob`\\ s, which the broker then
hashes through the *same* :func:`~repro.harness.parallel.job_key` as
batch sweeps — identity over the wire is identity on disk, so a job a
client submits twice (or two clients submit at once) is one simulation
and one cache entry.

Events streamed back to clients are NDJSON: one JSON object per line,
each carrying at least ``event`` (``queued`` / ``coalesced`` /
``running`` / ``retry`` / ``telemetry`` / ``completed`` / ``failed``),
``key`` and ``seq``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from repro.core.config import SimulationConfig
from repro.faults.schedule import FaultSchedule
from repro.harness.parallel import SimJob
from repro.harness.scenario import sampled_schedule

#: Hard ceiling on jobs a single request may expand to; a sweep bigger
#: than this should be chunked by the client (admission control bounds
#: *concurrent* work, this bounds one request's fan-out).
MAX_JOBS_PER_REQUEST = 256

#: Config fields a request may not set, with the reason; every other
#: :class:`SimulationConfig` field is settable under its own name.
EXCLUDED_FIELDS = {
    "audit": "auditing is an interactive debugging mode (python -m repro --audit)",
    "router_config": (
        "a request names an architecture with 'router'; its VC and buffer "
        "structure stays the paper's, as in the CLI"
    ),
}


class RequestError(ValueError):
    """A request payload that cannot be normalized into jobs."""


@dataclass(frozen=True)
class NormalizedRequest:
    """A validated request: its kind plus the jobs it expands to."""

    kind: str
    jobs: tuple[SimJob, ...]


def build_config(payload: object) -> SimulationConfig:
    """Request ``dict -> SimulationConfig`` with friendly errors.

    Keys are the config's own field names plus two aliases: ``rate``
    for ``injection_rate`` and ``size`` for ``width`` and ``height``.
    """
    if not isinstance(payload, dict):
        raise RequestError("config must be a JSON object")
    params: dict = {}
    for name, value in payload.items():
        if name == "size":
            params["width"] = params["height"] = value
        elif name == "rate":
            params["injection_rate"] = value
        elif name in EXCLUDED_FIELDS:
            raise RequestError(
                f"unknown config field {name!r}: {EXCLUDED_FIELDS[name]}"
            )
        else:
            params[name] = value
    try:
        return SimulationConfig.from_payload(params)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad config: {exc}") from exc


def _campaign_schedule(payload: dict, config: SimulationConfig) -> FaultSchedule:
    if "schedule" in payload and "mtbf" in payload:
        raise RequestError("campaign takes either 'schedule' or 'mtbf', not both")
    if "schedule" in payload:
        try:
            return FaultSchedule.from_payload(payload["schedule"])
        except (TypeError, ValueError, KeyError) as exc:
            raise RequestError(f"bad fault schedule: {exc}") from exc
    if "mtbf" not in payload:
        raise RequestError("campaign needs a 'schedule' or 'mtbf' field")
    faults = payload.get("faults", 1)
    if not isinstance(faults, int) or faults < 1:
        raise RequestError("'faults' must be a positive integer")
    try:
        return sampled_schedule(
            config,
            count=faults,
            mtbf=float(payload["mtbf"]),
            critical=payload.get("critical", True),
            weibull_shape=payload.get("weibull_shape"),
            duration=payload.get("transient"),
        )
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad campaign sampling: {exc}") from exc


def normalize_request(payload: object) -> NormalizedRequest:
    """Validate a request body and expand it into jobs.

    Raises :class:`RequestError` on anything malformed; the server maps
    that to HTTP 400 with the message in the body.
    """
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    kind = payload.get("kind", "experiment")
    if kind == "experiment":
        config = build_config(payload.get("config", {}))
        jobs: list[SimJob] = [SimJob.of(config)]
    elif kind == "sweep":
        base = payload.get("base", payload.get("config", {}))
        if not isinstance(base, dict):
            raise RequestError("sweep 'base' must be a JSON object")
        rates = payload.get("rates")
        seeds = payload.get("seeds")
        if rates is None:
            rates = [base.get("rate", base.get("injection_rate", 0.1))]
        if seeds is None:
            seeds = [base.get("seed", 1)]
        if not isinstance(rates, list) or not rates:
            raise RequestError("sweep 'rates' must be a non-empty list")
        if not isinstance(seeds, list) or not seeds:
            raise RequestError("sweep 'seeds' must be a non-empty list")
        jobs = []
        for rate, seed in itertools.product(rates, seeds):
            point = dict(base)
            point.pop("rate", None)
            point.update({"injection_rate": rate, "seed": seed})
            jobs.append(SimJob.of(build_config(point)))
    elif kind == "campaign":
        config = build_config(payload.get("config", {}))
        schedule = _campaign_schedule(payload, config)
        jobs = [SimJob.of(config, schedule=schedule)]
    else:
        raise RequestError(
            f"unknown request kind {kind!r} "
            "(expected experiment, sweep or campaign)"
        )
    if len(jobs) > MAX_JOBS_PER_REQUEST:
        raise RequestError(
            f"request expands to {len(jobs)} jobs "
            f"(limit {MAX_JOBS_PER_REQUEST}); split it"
        )
    return NormalizedRequest(kind=kind, jobs=tuple(jobs))


def encode_event(event: dict) -> bytes:
    """One NDJSON line (sorted keys, newline-terminated)."""
    return (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")


def decode_event(line: bytes | str) -> dict:
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    return json.loads(line)
