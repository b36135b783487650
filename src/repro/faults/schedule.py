"""Deterministic runtime fault schedules (campaign engine input).

A :class:`FaultSchedule` is an immutable, fully materialised list of
:class:`FaultEvent`\\ s — each a :class:`ComponentFault` stamped with the
cycle it strikes and an optional duration (transient faults heal after
``duration`` cycles; permanent ones never do).  Materialising at
construction, with a dedicated ``random.Random(seed)`` for sampled
schedules, makes campaigns reproducible and scheduler-independent: the
simulator merely consumes a fixed event stream, so the activity-driven
and full-sweep schedulers observe bit-identical fault timelines.

Two construction styles mirror how reliability studies specify faults:

* **fixed-cycle** — exact events, e.g. "the row module of (2,3) dies at
  cycle 5 000" (:meth:`FaultSchedule.at_cycle` or the constructor);
* **arrival-sampled** — inter-arrival times drawn from an exponential
  (classic MTBF) or Weibull distribution over a random fault population
  (:meth:`FaultSchedule.sampled`).

Schedules round-trip through plain-JSON payloads so campaigns can be
shipped to parallel workers, hashed into cache keys and loaded from the
CLI's ``--fault-schedule`` file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import RouterConfig
from repro.core.types import NodeId
from repro.faults.injector import ComponentFault, random_faults


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: what breaks, when, and for how long.

    ``duration=None`` means the fault is permanent; a positive duration
    makes it transient — the component heals at ``cycle + duration``.
    """

    cycle: int
    fault: ComponentFault
    duration: int | None = None

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError(f"fault event cycle must be >= 0, got {self.cycle}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(
                f"transient duration must be positive, got {self.duration}"
            )

    @property
    def transient(self) -> bool:
        return self.duration is not None

    @property
    def clear_cycle(self) -> int | None:
        """Cycle the fault heals, or None for permanent faults."""
        if self.duration is None:
            return None
        return self.cycle + self.duration


class FaultSchedule:
    """An immutable stream of fault events, sorted by strike cycle.

    Events striking the same cycle keep their construction order (stable
    sort), which defines the order the simulator applies them in.
    """

    def __init__(
        self, events: "list[FaultEvent] | tuple[FaultEvent, ...]" = ()
    ) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.cycle)
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def at_cycle(
        cls,
        cycle: int,
        faults: "list[ComponentFault]",
        duration: int | None = None,
    ) -> "FaultSchedule":
        """All of ``faults`` striking together at ``cycle``."""
        return cls([FaultEvent(cycle, fault, duration) for fault in faults])

    @classmethod
    def sampled(
        cls,
        nodes: "list[NodeId]",
        *,
        count: int,
        seed: int,
        mtbf: float,
        critical: bool = True,
        weibull_shape: float | None = None,
        start_cycle: int = 0,
        duration: int | None = None,
        horizon: int | None = None,
        exclude: "set[NodeId] | None" = None,
        router_config: RouterConfig | None = None,
    ) -> "FaultSchedule":
        """Sample ``count`` fault arrivals over a random fault population.

        Inter-arrival times are exponential with mean ``mtbf`` (the
        memoryless MTBF model) or, when ``weibull_shape`` is given,
        Weibull with scale ``mtbf`` and that shape (shape < 1 models
        infant mortality, shape > 1 wear-out).  Arrivals are rounded up
        to whole cycles, accumulate from ``start_cycle``, and events past
        ``horizon`` (when given) are discarded.  Everything is drawn from
        one ``random.Random(seed)``, so equal arguments yield identical
        schedules on every scheduler and worker.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if weibull_shape is not None and weibull_shape <= 0:
            raise ValueError("weibull_shape must be positive")
        rng = random.Random(seed)
        faults = random_faults(
            nodes, count, rng, critical, exclude, router_config=router_config
        )
        events: list[FaultEvent] = []
        cycle = start_cycle
        for fault in faults:
            if weibull_shape is None:
                gap = rng.expovariate(1.0 / mtbf)
            else:
                gap = rng.weibullvariate(mtbf, weibull_shape)
            cycle += max(1, round(gap))
            if horizon is not None and cycle > horizon:
                break
            events.append(FaultEvent(cycle, fault, duration))
        return cls(events)

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = (
            f"cycles {self.events[0].cycle}..{self.events[-1].cycle}"
            if self.events
            else "empty"
        )
        return f"FaultSchedule({len(self.events)} events, {span})"

    # -- serialisation -----------------------------------------------------

    def to_payload(self) -> list[dict]:
        """Plain-JSON event list (cache keys, workers, files)."""
        return [
            {
                "cycle": event.cycle,
                **event.fault.to_payload(),
                "duration": event.duration,
            }
            for event in self.events
        ]

    @classmethod
    def from_payload(cls, payload: "list[dict]") -> "FaultSchedule":
        events = []
        for entry in payload:
            try:
                fault = dict(entry)
                cycle = int(fault.pop("cycle"))
                duration = fault.pop("duration", None)
                events.append(
                    FaultEvent(
                        cycle=cycle,
                        fault=ComponentFault.from_payload(fault),
                        duration=None if duration is None else int(duration),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed fault-event entry {entry!r}") from exc
        return cls(events)

    def to_json(self, path: "str | Path") -> None:
        Path(path).write_text(json.dumps(self.to_payload(), indent=2) + "\n")

    @classmethod
    def from_json(cls, path: "str | Path") -> "FaultSchedule":
        return cls.from_payload(json.loads(Path(path).read_text()))
