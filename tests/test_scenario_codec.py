"""The scenario codec: config, faults, schedule and job payloads.

``SimulationConfig`` / ``RouterConfig`` / ``ComponentFault`` /
``FaultSchedule`` / ``SimJob`` each own a ``to_payload`` /
``from_payload`` pair, and every module that serialises a scenario — the
cache key, job files, server requests — goes through them.  The
tests pin the bytes (literal ``job_key`` digests computed before the
codec existed), the round trip, and the property that makes the codec
safe to extend: no config field can be left out of the key.
"""

import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.core.config import RouterConfig, SimulationConfig
from repro.core.types import NodeId, RoutingMode
from repro.faults.injector import ComponentFault
from repro.faults.model import Component
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.harness.parallel import ParallelExecutor, ResultCache, SimJob, job_key
from repro.harness.resilient import RetryPolicy
from repro.serve.broker import JobBroker
from repro.serve.client import RequestRejected, ServeClient
from repro.serve.protocol import RequestError, build_config, normalize_request
from repro.serve.server import ServerThread
from repro.traffic import TRAFFIC_CLASSES

ANCHOR = SimulationConfig(
    width=4,
    height=4,
    warmup_packets=20,
    measure_packets=80,
    injection_rate=0.1,
    seed=3,
)
FAULTS = (
    ComponentFault(NodeId(1, 2), Component.CROSSBAR, module="column"),
    ComponentFault(NodeId(3, 0), Component.BUFFER, vc_position=4),
)
SCHEDULE = FaultSchedule(
    [
        FaultEvent(
            40,
            ComponentFault(NodeId(2, 2), Component.SA, module="column"),
            duration=25,
        ),
        FaultEvent(90, ComponentFault(NodeId(0, 1), Component.RC)),
    ]
)

#: job -> the digest ``job_key`` gave it at the commit before the codec
#: (hand-written ``config_payload`` / ``_fault_payload``).  A digest
#: that moves orphans every cache entry written so far.
PINNED_KEYS = [
    (
        SimJob.of(ANCHOR),
        "5fcc6529811ef0ce4bfd676792325382cd63307ec7aec9617e746143d2ea75fd",
    ),
    (
        SimJob.of(SimulationConfig()),
        "9edcbd47c3ec050ec6e739a36726b08404a179afd896af1fe2e39912a808cf6f",
    ),
    (
        SimJob.of(
            replace(
                ANCHOR,
                router_config=RouterConfig(mirror_allocation=False, buffer_depth=6),
            )
        ),
        "877519fee3406a03a3c210419c782ec2b176d41e9fda17cb0fd4feb05f8f7c2f",
    ),
    (
        SimJob.of(replace(ANCHOR, backend="soa")),
        "ec879ad15c4181e9d286208e74eaf9b0b31f964924de86580dc5ed3afa6db00c",
    ),
    (
        SimJob.of(replace(ANCHOR, shards=(2, 2))),
        "c7612bafd544a96d093f787c30cd576b619c2525004d11aa1720150b65d9b13c",
    ),
    (
        SimJob.of(replace(ANCHOR, shards=(1, 1))),
        "4cc5171722bed30e77d8413a0283107c982bb109a2661d7aecc09ca25d514895",
    ),
    (
        SimJob.of(
            replace(ANCHOR, topology="torus", router="generic", router_config=None)
        ),
        "e878ee2ab67a073b5598524e3d496224342358302b8705b3b68015bd28fe2294",
    ),
    (
        SimJob.of(ANCHOR, faults=FAULTS),
        "4bad5a52957741a8902af29cf1c1cbb452fc8ad710dbe23536c3aaa6a1e0db0b",
    ),
    (
        SimJob.of(ANCHOR, schedule=SCHEDULE),
        "ef7c26ef3bfcbeb965dc1e14a2bd4f9b3e633ca5c63143e0c4635b1b8865bd5b",
    ),
    (
        SimJob.of(
            replace(ANCHOR, routing="xy-yx", traffic="transpose"),
            faults=FAULTS[:1],
            schedule=SCHEDULE,
        ),
        "c533d9011c5fcc07b7c3abf794e782ee021ea92788526ef552c3c9c561ed51a5",
    ),
]


class TestKeyBytes:
    @pytest.mark.parametrize("job, digest", PINNED_KEYS)
    def test_job_key_is_the_digest_old_caches_hold(self, job, digest):
        assert job_key(job) == digest

    def test_payload_is_plain_json(self):
        for job, _ in PINNED_KEYS:
            payload = job.to_payload()
            assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------

router_configs = st.builds(
    RouterConfig,
    vcs_per_port=st.integers(1, 4),
    buffer_depth=st.integers(1, 8),
    flit_width_bits=st.sampled_from([32, 64, 128]),
    mirror_allocation=st.booleans(),
    lookahead_routing=st.booleans(),
)
routers = st.sampled_from(["generic", "path_sensitive", "roco"])


@st.composite
def configs(draw) -> SimulationConfig:
    torus = draw(st.booleans())
    try:
        return SimulationConfig(
            width=draw(st.integers(3, 12)),
            height=draw(st.integers(3, 12)),
            topology="torus" if torus else "mesh",
            router="generic" if torus else draw(routers),
            routing=RoutingMode.XY if torus else draw(st.sampled_from(RoutingMode)),
            traffic=draw(st.sampled_from(sorted(TRAFFIC_CLASSES))),
            injection_rate=draw(st.floats(0.0, 1.0)),
            flits_per_packet=draw(st.integers(1, 8)),
            router_config=draw(st.none() | router_configs),
            warmup_packets=draw(st.integers(0, 10**6)),
            measure_packets=draw(st.integers(1, 10**6)),
            max_cycles=draw(st.integers(1, 10**7)),
            fault_drop_timeout=draw(st.integers(1, 10**4)),
            drain_timeout=draw(st.integers(1, 10**4)),
            seed=draw(st.integers(0, 2**32)),
            audit=draw(st.booleans()),
            backend=draw(st.sampled_from(["object", "soa"])),
            shards=draw(st.none() | st.tuples(st.integers(1, 4), st.integers(1, 4))),
        )
    except ValueError:
        reject()  # a config that cannot run: SimulationConfig says which


faults = st.builds(
    ComponentFault,
    node=st.builds(NodeId, st.integers(0, 11), st.integers(0, 11)),
    component=st.sampled_from(list(Component)),
    module=st.sampled_from(["row", "column"]),
    vc_position=st.integers(0, 7),
)
events = st.builds(
    FaultEvent,
    cycle=st.integers(0, 10**6),
    fault=faults,
    duration=st.none() | st.integers(1, 10**4),
)
jobs = st.builds(
    SimJob,
    config=configs(),
    faults=st.lists(faults, max_size=4).map(tuple),
    schedule=st.none() | st.lists(events, max_size=4).map(FaultSchedule),
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(jobs)
    def test_job_survives_its_payload(self, job):
        wire = json.loads(json.dumps(job.to_payload()))
        decoded = SimJob.from_payload(wire)
        assert decoded == job
        assert job_key(decoded) == job_key(job)

    def test_absent_fields_take_their_defaults(self):
        assert SimulationConfig.from_payload({}) == SimulationConfig()
        config = SimulationConfig.from_payload(
            {"router": "generic", "router_config": {"buffer_depth": 7}}
        )
        assert config.router_config == RouterConfig(buffer_depth=7)
        fault = ComponentFault.from_payload({"node": [1, 2], "component": "va"})
        assert fault == ComponentFault(NodeId(1, 2), Component.VA)


# ----------------------------------------------------------------------
# Every field is in the key
# ----------------------------------------------------------------------

#: A second legal value for the fields whose values are validated names.
#: Booleans, numbers and the nested ``RouterConfig`` are varied by type,
#: so a new field of those kinds is covered with no edit here — and a new
#: field of any other kind fails :func:`second_value` until it is taught
#: one, which is the point: there is no way to skip a field.
SECOND_VALUES = {
    "topology": "torus",
    "router": "roco",
    "routing": RoutingMode.ADAPTIVE,
    "traffic": "transpose",
    "backend": "soa",
    "shards": (2, 2),
}

GUARD_BASE = SimulationConfig(
    width=4, height=4, router="generic", warmup_packets=20, measure_packets=80
)


def second_value(name: str, value):
    if name in SECOND_VALUES:
        return SECOND_VALUES[name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if isinstance(value, RouterConfig):
        return replace(value, vcs_per_port=value.vcs_per_port + 1)
    raise AssertionError(
        f"no second value known for config field {name!r}; add one to "
        "SECOND_VALUES so the key-coverage guard can vary it"
    )


class TestEveryFieldIsKeyed:
    @pytest.mark.parametrize("name", [f.name for f in fields(SimulationConfig)])
    def test_simulation_config_field_changes_key(self, name):
        changed = replace(
            GUARD_BASE,
            **{name: second_value(name, getattr(GUARD_BASE, name))},
        )
        assert changed != GUARD_BASE
        assert job_key(SimJob.of(changed)) != job_key(SimJob.of(GUARD_BASE))

    @pytest.mark.parametrize("name", [f.name for f in fields(RouterConfig)])
    def test_router_config_field_changes_key(self, name):
        router_config = GUARD_BASE.router_config
        changed = replace(
            GUARD_BASE,
            router_config=replace(
                router_config,
                **{name: second_value(name, getattr(router_config, name))},
            ),
        )
        assert job_key(SimJob.of(changed)) != job_key(SimJob.of(GUARD_BASE))

    def test_audited_job_is_not_served_the_unaudited_record(self, tmp_path):
        """An ``audit=True`` job used to share the plain job's key, so a
        warm cache answered it and the audit never ran."""
        executor = ParallelExecutor(cache=ResultCache(tmp_path))
        audited = replace(ANCHOR, audit=True)
        executor.run_configs([ANCHOR])
        assert executor.last_stats.simulated == 1
        executor.run_configs([audited])
        assert executor.last_stats.simulated == 1
        assert executor.last_stats.cache_hits == 0
        assert job_key(SimJob.of(audited)) != job_key(SimJob.of(ANCHOR))
        assert job_key(SimJob.of(ANCHOR)) == PINNED_KEYS[0][1]


# ----------------------------------------------------------------------
# Unknown keys, and the server's view of the codec
# ----------------------------------------------------------------------


class TestUnknownKeys:
    def test_each_level_names_the_key(self):
        with pytest.raises(ValueError, match="'voltage'"):
            SimulationConfig.from_payload({"voltage": 1.1})
        with pytest.raises(ValueError, match="'vc_depth'"):
            SimulationConfig.from_payload({"router_config": {"vc_depth": 4}})
        with pytest.raises(ValueError, match="'severity'"):
            ComponentFault.from_payload(
                {"node": [0, 0], "component": "rc", "severity": 2}
            )
        with pytest.raises(ValueError, match="'severity'"):
            FaultSchedule.from_payload(
                [{"cycle": 5, "node": [0, 0], "component": "rc", "severity": 2}]
            )
        with pytest.raises(ValueError, match="'priority'"):
            SimJob.from_payload({"config": {}, "priority": 1})

    def test_server_maps_it_to_request_error(self):
        with pytest.raises(RequestError, match="'voltage'"):
            normalize_request({"config": {"voltage": 1.1}})
        with pytest.raises(RequestError, match="'severity'"):
            normalize_request(
                {
                    "kind": "campaign",
                    "config": {},
                    "schedule": [
                        {
                            "cycle": 5,
                            "node": [0, 0],
                            "component": "rc",
                            "severity": 2,
                        }
                    ],
                }
            )

    def test_server_answers_400(self):
        broker = JobBroker(
            workers=1,
            policy=RetryPolicy(backoff_base=0.0, validate=False),
            job_fn=lambda job, *_: {"seed": job.config.seed},
        )
        with broker, ServerThread(broker) as url:
            with pytest.raises(RequestRejected, match="'voltage'") as excinfo:
                ServeClient(url).submit({"config": {"voltage": 1.1}})
            assert excinfo.value.status == 400


class TestRequestFields:
    def test_sugar_keys_build_the_same_config(self):
        assert build_config({"size": 4, "rate": 0.25}) == SimulationConfig(
            width=4, height=4, injection_rate=0.25
        )

    def test_every_other_config_field_is_settable_by_name(self):
        config = build_config(
            {"topology": "torus", "router": "generic", "backend": "soa",
             "drain_timeout": 99}
        )
        assert (config.topology, config.backend) == ("torus", "soa")
        assert config.drain_timeout == 99

    @pytest.mark.parametrize(
        "field, value",
        [("audit", True), ("router_config", {"buffer_depth": 9}), ("shards", [2, 1])],
    )
    def test_excluded_fields_are_still_refused(self, field, value):
        with pytest.raises(RequestError, match=f"unknown config field '{field}'"):
            build_config({field: value})


# ----------------------------------------------------------------------
# Job files
# ----------------------------------------------------------------------

#: A ``repro-audit/v1`` reproducer exactly as the pre-codec commit wrote
#: it: the config block carries no ``audit`` key.
OLD_REPRODUCER = {
    "schema": "repro-audit/v1",
    "config": {
        "width": 4,
        "height": 4,
        "topology": "mesh",
        "router": "roco",
        "routing": "xy",
        "traffic": "uniform",
        "injection_rate": 0.1,
        "flits_per_packet": 4,
        "warmup_packets": 0,
        "measure_packets": 40,
        "max_cycles": 5000,
        "fault_drop_timeout": 200,
        "drain_timeout": 2000,
        "seed": 3,
        "router_config": {
            "vcs_per_port": 3,
            "buffer_depth": 5,
            "flit_width_bits": 128,
            "mirror_allocation": True,
            "lookahead_routing": True,
        },
    },
    "schedule": [
        {
            "cycle": 20,
            "node": [1, 1],
            "component": "rc",
            "module": "row",
            "vc_position": 0,
            "duration": None,
        }
    ],
    "violation": {
        "invariant": "credit",
        "cycle": 12,
        "message": "synthetic",
        "node": [1, 1],
        "pid": 4,
    },
}


class TestReproducerFormat:
    def test_old_and_new_files_load_and_replay(self, tmp_path, capsys):
        """An old reproducer replays as the job its config and schedule
        name, audited; the job file ``--shrink`` writes today is that
        job's payload.  The scenario is healthy: both run clean."""
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(OLD_REPRODUCER))
        config = SimulationConfig.from_payload(OLD_REPRODUCER["config"])
        job = SimJob(
            replace(config, audit=True),
            schedule=FaultSchedule.from_payload(OLD_REPRODUCER["schedule"]),
        )
        new.write_text(json.dumps(job.to_payload()))
        outputs = []
        for path in (old, new):
            assert main(["--replay", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("fault @ cycle 20: rc at (1,1) (row module)")
        assert outputs[0].err == "audit: all invariants held\n"
