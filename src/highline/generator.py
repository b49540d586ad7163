"""Deterministic service-desk simulator for end-to-end tests.

Customers file requests that a small team turns into a report and an
answer; customers who wait too long for their answer send a follow-up
question, and keep nagging at their patience interval until the answer
arrives or they give up. Every follow-up adds handling effort to the
eventual answer, so congestion feeds back into itself (boundedly, thanks
to the nagging cap). One team member batches paperwork: whenever her
backlog grows past a threshold she files all pending reports before
answering anyone, which lets work pile up between `report` and `answer`
exactly when the process is busy. Weeks alternate between quiet and busy
arrival rates, so the produced logs contain distinct congestion episodes.

All randomness is drawn up front from per-concern streams derived from the
seed, so two runs with the same seed produce identical logs, and toggling
the batching behavior leaves arrivals, service times and patience draws
untouched.
"""

from __future__ import annotations

import heapq
import random
import typing
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import datetime

from .errors import ConfigError, check_json_types, read_json_object
from .events import EventLog, parse_config_timestamp, to_microseconds
from .framing import Framing

ACT_REQUEST = "request"
ACT_REPORT = "report"
ACT_ANSWER = "answer"
ACT_FOLLOW = "follow"

WEEK_SECONDS = 7 * 86400


@dataclass(frozen=True)
class WeekSpec:
    """Arrival behavior of one week: uniform inter-arrival range in seconds,
    or no arrivals at all."""

    interarrival: tuple[int, int] | None

    def validate(self, index: int) -> None:
        if self.interarrival is None:
            return
        lo, hi = self.interarrival
        if lo <= 0 or hi < lo:
            raise ConfigError(f"week {index + 1}: invalid inter-arrival range {self.interarrival}")


QUIET_ARRIVALS = (600, 900)  # a new case every 10-15 minutes
BUSY_ARRIVALS = (180, 300)  # every 3-5 minutes


def default_weeks() -> tuple[WeekSpec, ...]:
    busy = {2, 3, 6}
    return tuple(
        WeekSpec(BUSY_ARRIVALS if week in busy else QUIET_ARRIVALS) for week in range(1, 8)
    )


@dataclass(frozen=True)
class ScenarioConfig:
    weeks: tuple[WeekSpec, ...] = field(default_factory=default_weeks)
    start: datetime = datetime(2023, 1, 2)  # a Monday
    active_hours: tuple[int, int] = (8, 20)  # requests arrive only in this span
    report_duration: tuple[int, int] = (120, 300)
    answer_duration: tuple[int, int] = (120, 300)
    follow_extra: tuple[int, int] = (60, 180)  # extra answer effort per follow-up
    impatient_patience: tuple[int, int] = (1800, 3600)  # at most one hour
    patient_patience: tuple[int, int] = (10800, 18000)  # at least three hours
    patient_fraction: float = 0.5
    batching_resource: str = "Jane"
    coworkers: tuple[str, ...] = ("Pete", "Sara")
    batching_weight: int = 3  # share of cases routed to the batching resource
    batch_threshold: int = 5
    batching_enabled: bool = True
    max_follows: int = 3  # customers stop nagging after this many follow-ups
    intake_resource: str = "system"
    seed: int = 42

    @property
    def handlers(self) -> tuple[str, ...]:
        return (self.batching_resource, *self.coworkers)

    def validate(self) -> None:
        if not self.weeks:
            raise ConfigError("at least one week is required")
        for i, week in enumerate(self.weeks):
            week.validate(i)
        for name, rng in (
            ("report_duration", self.report_duration),
            ("answer_duration", self.answer_duration),
            ("follow_extra", self.follow_extra),
            ("impatient_patience", self.impatient_patience),
            ("patient_patience", self.patient_patience),
        ):
            lo, hi = rng
            if lo <= 0 or hi < lo:
                raise ConfigError(f"invalid {name} range {rng}")
        if not 0 <= self.patient_fraction <= 1:
            raise ConfigError("patient_fraction must lie in [0, 1]")
        lo, hi = self.active_hours
        if not (0 <= lo < hi <= 24):
            raise ConfigError(f"invalid active hours {self.active_hours}")
        if self.batch_threshold < 0 or self.batching_weight < 1:
            raise ConfigError("batch_threshold must be >= 0 and batching_weight >= 1")
        if self.max_follows < 0:
            raise ConfigError("max_follows must be >= 0")

    def to_dict(self) -> dict:
        """The config as JSON values, in field order: the start in ISO 8601,
        each week as its inter-arrival range or ``null``, tuples as lists."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["weeks"] = [list(w.interarrival) if w.interarrival else None for w in self.weeks]
        data["start"] = self.start.isoformat()
        return {name: list(v) if isinstance(v, tuple) else v for name, v in data.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """The config of ``to_dict``'s JSON values, defaults for the rest."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown scenario config fields: {sorted(unknown)}")
        # the JSON forms of the fields that to_dict converts
        hints = {**typing.get_type_hints(cls), "weeks": list[tuple[int, int] | None], "start": str}
        check_json_types(data, hints, "scenario config")
        merged = {name: tuple(v) if isinstance(v, list) else v for name, v in data.items()}
        if "weeks" in data:
            merged["weeks"] = tuple(WeekSpec(None if w is None else tuple(w)) for w in data["weeks"])
        if "start" in data:
            # an offset start is taken to naive UTC, like every timestamp of a log
            merged["start"] = parse_config_timestamp(data["start"], "scenario config: start")
        return cls(**merged)

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        return cls.from_dict(read_json_object(path))


@dataclass
class _Case:
    index: int
    arrival: int  # seconds from scenario start
    handler: str
    report_duration: int
    answer_duration: int
    patience: int
    follow_extra: int
    follows: int = 0
    answer_started: bool = False
    answered: bool = False
    extra: int = 0

    @property
    def name(self) -> str:
        return f"c{self.index:05d}"


class _Handler:
    """One worker with a FIFO task queue.

    The batching worker prioritizes report tasks over answer tasks from the
    moment the queue outgrows the threshold until no report is pending.
    """

    def __init__(self, name: str, batching: bool, threshold: int):
        self.name = name
        self.batching = batching
        self.threshold = threshold
        self.reports: list[tuple[int, _Case]] = []  # (enqueue seq, case), FIFO
        self.answers: list[tuple[int, _Case]] = []
        self.busy = False
        self.batch_mode = False

    def pending(self) -> int:
        return len(self.reports) + len(self.answers)

    def take(self) -> tuple[str, _Case] | None:
        if self.batching:
            if not self.batch_mode and self.pending() > self.threshold:
                self.batch_mode = True
            if self.batch_mode and not self.reports:
                self.batch_mode = False
        if self.batch_mode and self.reports:
            return (ACT_REPORT, self.reports.pop(0)[1])
        if not self.reports and not self.answers:
            return None
        # plain FIFO: oldest enqueued task of either kind
        if self.reports and (not self.answers or self.reports[0][0] < self.answers[0][0]):
            return (ACT_REPORT, self.reports.pop(0)[1])
        return (ACT_ANSWER, self.answers.pop(0)[1])


def _draw_arrivals(config: ScenarioConfig, rng: random.Random) -> list[int]:
    """Arrival times in seconds from the scenario start.

    Inter-arrival gaps are uniform draws from the week's range; arrivals
    outside the active hours roll over to the next day's opening.
    """
    lo_h, hi_h = config.active_hours
    arrivals: list[int] = []
    for week_index, week in enumerate(config.weeks):
        if week.interarrival is None:
            continue
        week_start = week_index * WEEK_SECONDS
        week_end = week_start + WEEK_SECONDS
        t = week_start + lo_h * 3600
        while True:
            t += rng.randint(*week.interarrival)
            day_second = t % 86400
            if day_second >= hi_h * 3600:
                t = (t // 86400 + 1) * 86400 + lo_h * 3600
            if t >= week_end:
                break
            arrivals.append(t)
    return arrivals


def generate(config: ScenarioConfig | None = None) -> EventLog:
    """Simulate the scenario and return the resulting event log."""
    config = config or ScenarioConfig()
    config.validate()

    rng_arrivals = random.Random(f"{config.seed}:arrivals")
    rng_service = random.Random(f"{config.seed}:service")
    rng_patience = random.Random(f"{config.seed}:patience")
    rng_assign = random.Random(f"{config.seed}:assign")

    arrivals = _draw_arrivals(config, rng_arrivals)
    weights = [config.batching_weight] + [1] * len(config.coworkers)
    cases = []
    for i, t in enumerate(arrivals):
        patient = rng_patience.random() < config.patient_fraction
        patience_range = config.patient_patience if patient else config.impatient_patience
        cases.append(
            _Case(
                index=i + 1,
                arrival=t,
                handler=rng_assign.choices(config.handlers, weights=weights)[0],
                report_duration=rng_service.randint(*config.report_duration),
                answer_duration=rng_service.randint(*config.answer_duration),
                patience=rng_patience.randint(*patience_range),
                follow_extra=rng_service.randint(*config.follow_extra),
            )
        )

    handlers = {
        name: _Handler(
            name,
            batching=(name == config.batching_resource and config.batching_enabled),
            threshold=config.batch_threshold,
        )
        for name in config.handlers
    }

    raw: list[tuple[int, int, str, str, str]] = []  # (t, emit seq, case, activity, resource)
    heap: list[tuple[int, int, str, object]] = []
    seq = 0

    def push(t: int, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, payload))
        seq += 1

    def emit(t: int, case: _Case, activity: str, resource: str) -> None:
        raw.append((t, len(raw), case.name, activity, resource))

    def start_next(handler: _Handler, t: int) -> None:
        if handler.busy:
            return
        task = handler.take()
        if task is None:
            return
        kind, case = task
        if kind == ACT_REPORT:
            duration = case.report_duration
        else:
            case.answer_started = True
            duration = case.answer_duration + case.extra
        handler.busy = True
        push(t + duration, "done", (handler.name, kind, case))

    enqueue_seq = 0

    def enqueue(handler: _Handler, kind: str, case: _Case, t: int) -> None:
        nonlocal enqueue_seq
        target = handler.reports if kind == ACT_REPORT else handler.answers
        target.append((enqueue_seq, case))
        enqueue_seq += 1
        start_next(handler, t)

    for case in cases:
        push(case.arrival, "arrival", case)
        push(case.arrival + case.patience, "follow", case)

    while heap:
        t, _, kind, payload = heapq.heappop(heap)
        if kind == "arrival":
            case = payload
            emit(t, case, ACT_REQUEST, config.intake_resource)
            enqueue(handlers[case.handler], ACT_REPORT, case, t)
        elif kind == "follow":
            case = payload
            if case.answered or case.follows >= config.max_follows:
                continue
            case.follows += 1
            emit(t, case, ACT_FOLLOW, case.handler)
            if not case.answer_started:
                case.extra += case.follow_extra
            if case.follows < config.max_follows:
                push(t + case.patience, "follow", case)
        else:  # done
            handler_name, task_kind, case = payload
            handler = handlers[handler_name]
            emit(t, case, task_kind, handler_name)
            handler.busy = False
            if task_kind == ACT_REPORT:
                enqueue(handler, ACT_ANSWER, case, t)
            else:
                case.answered = True
            start_next(handler, t)

    return _to_log(raw, config)


def _to_log(raw: list[tuple[int, int, str, str, str]], config: ScenarioConfig) -> EventLog:
    """Turn emitted records into an event log with strictly increasing
    per-case timestamps (1-second clock; rare collisions are nudged)."""
    by_case: dict[str, list[tuple[int, int, str, str, str]]] = {}
    for record in raw:
        by_case.setdefault(record[2], []).append(record)
    adjusted: list[tuple[int, str, str, str]] = []
    for case, records in by_case.items():
        records.sort(key=lambda r: (r[0], r[1]))
        last = None
        for t, _, _, activity, resource in records:
            if last is not None and t <= last:
                t = last + 1
            last = t
            adjusted.append((t, case, activity, resource))
    adjusted.sort(key=lambda r: (r[0], r[1]))
    start_us = to_microseconds(config.start)
    return EventLog.from_columns(
        [case for _, case, _, _ in adjusted],
        [activity for _, _, activity, _ in adjusted],
        [start_us + t * 1_000_000 for t, _, _, _ in adjusted],
        [resource for _, _, _, resource in adjusted],
    )


def weekly_event_counts(log: EventLog, start: datetime) -> dict[int, int]:
    """Events per 1-based week index relative to ``start``."""
    weeks = Framing(start, WEEK_SECONDS).windows_of(log.times_us) + 1
    return dict(Counter(weeks.tolist()))
