import json
import re
from collections import Counter
from datetime import datetime

import pytest

from highline import ConfigError, ScenarioConfig, WeekSpec, generate, weekly_event_counts
from highline.generator import BUSY_ARRIVALS, QUIET_ARRIVALS


def small_config(**overrides):
    """A two-week scenario that keeps unit tests fast."""
    base = dict(
        weeks=(WeekSpec(QUIET_ARRIVALS), WeekSpec(BUSY_ARRIVALS)),
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def fields(log):
    return [(e.case, e.activity, e.timestamp, e.resource) for e in log.events]


def test_same_seed_gives_identical_logs():
    assert fields(generate(small_config())) == fields(generate(small_config()))


def test_different_seed_differs():
    assert fields(generate(small_config(seed=1))) != fields(generate(small_config(seed=2)))


def test_cases_are_well_formed():
    log = generate(small_config())
    cases = {}  # rows run in timestamp order, so each case's events do too
    for e in log.events:
        cases.setdefault(e.case, []).append(e)
    for case, seq in cases.items():
        acts = [e.activity for e in seq]
        assert acts[0] == "request", case
        assert "report" in acts and "answer" in acts
        assert acts.count("request") == 1 and acts.count("answer") == 1
        answer_at = acts.index("answer")
        for i, a in enumerate(acts):
            if a == "follow":
                assert 0 < i < answer_at  # only while the answer is pending
        times = [e.timestamp for e in seq]
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))


def test_follow_cap_respected():
    cfg = small_config(max_follows=2)
    log = generate(cfg)
    per_case = Counter(e.case for e in log.events if e.activity == "follow")
    assert per_case and max(per_case.values()) <= 2


def test_busy_weeks_have_more_events():
    cfg = ScenarioConfig(seed=11)
    counts = weekly_event_counts(generate(cfg), cfg.start)
    busy = {2, 3, 6}
    quiet_max = max(counts[w] for w in counts if w not in busy)
    for w in busy:
        assert counts[w] > quiet_max


def test_zero_arrival_week_is_empty():
    cfg = ScenarioConfig(
        weeks=(WeekSpec(QUIET_ARRIVALS), WeekSpec(None), WeekSpec(QUIET_ARRIVALS)),
        seed=3,
    )
    counts = weekly_event_counts(generate(cfg), cfg.start)
    assert counts.get(2, 0) == 0
    assert counts[1] > 0 and counts[3] > 0


def test_batching_disabled_reduces_follows_under_identical_arrivals():
    busy = small_config(weeks=(WeekSpec(BUSY_ARRIVALS),) * 2)
    calm = small_config(weeks=(WeekSpec(BUSY_ARRIVALS),) * 2, batching_enabled=False)
    with_batching = generate(busy)
    without = generate(calm)
    requests = lambda log: [e.timestamp for e in log.events if e.activity == "request"]
    assert requests(with_batching) == requests(without)
    follows = lambda log: sum(1 for e in log.events if e.activity == "follow")
    assert follows(without) < follows(with_batching)


@pytest.mark.parametrize("interarrival", [QUIET_ARRIVALS, BUSY_ARRIVALS])
def test_mean_interarrival_near_range_midpoint(interarrival):
    weeks = (WeekSpec(interarrival),) * (2 if interarrival == QUIET_ARRIVALS else 1)
    cfg = ScenarioConfig(weeks=weeks, active_hours=(0, 24), seed=13)
    log = generate(cfg)
    arrivals = sorted(e.timestamp for e in log.events if e.activity == "request")
    assert len(arrivals) >= 1000
    gaps = [(b - a).total_seconds() for a, b in zip(arrivals, arrivals[1:])]
    mean = sum(gaps) / len(gaps)
    midpoint = sum(interarrival) / 2
    assert abs(mean - midpoint) <= 0.1 * midpoint


def test_arrivals_respect_active_hours():
    cfg = small_config()
    log = generate(cfg)
    lo, hi = cfg.active_hours
    for e in log.events:
        if e.activity == "request":
            assert lo <= e.timestamp.hour < hi


def test_follow_resource_is_the_case_handler():
    log = generate(small_config())
    handler = {}
    for e in log.events:
        if e.activity in ("report", "answer"):
            handler[e.case] = e.resource
    for e in log.events:
        if e.activity == "follow":
            assert e.resource == handler[e.case]


def test_default_weeks_shape():
    cfg = ScenarioConfig()
    assert len(cfg.weeks) == 7
    assert [w.interarrival == BUSY_ARRIVALS for w in cfg.weeks] == [
        False, True, True, False, False, True, False,
    ]


def test_config_json_round_trip(tmp_path):
    cfg = small_config(seed=99, batch_threshold=4)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = ScenarioConfig.from_json(str(path))
    assert loaded == cfg


# the JSON of the default config, the schema the README points users to
DEFAULT_SCENARIO_JSON = (
    '{"weeks": [[600, 900], [180, 300], [180, 300], [600, 900], [600, 900], [180, 300], '
    '[600, 900]], "start": "2023-01-02T00:00:00", "active_hours": [8, 20], '
    '"report_duration": [120, 300], "answer_duration": [120, 300], "follow_extra": [60, 180], '
    '"impatient_patience": [1800, 3600], "patient_patience": [10800, 18000], '
    '"patient_fraction": 0.5, "batching_resource": "Jane", "coworkers": ["Pete", "Sara"], '
    '"batching_weight": 3, "batch_threshold": 5, "batching_enabled": true, "max_follows": 3, '
    '"intake_resource": "system", "seed": 42}'
)


def test_the_default_config_json_is_pinned():
    assert json.dumps(ScenarioConfig().to_dict()) == DEFAULT_SCENARIO_JSON
    assert ScenarioConfig.from_dict(json.loads(DEFAULT_SCENARIO_JSON)) == ScenarioConfig()


def test_a_config_with_an_empty_week_and_other_tuples_round_trips():
    cfg = ScenarioConfig(
        weeks=(WeekSpec(None), WeekSpec((5, 9))),
        start=datetime(2020, 2, 29, 1, 2, 3, 4),
        active_hours=(0, 24),
        coworkers=("Ann", "Bob", "Cy"),
        patient_patience=(7, 8),
        batching_enabled=False,
    )
    data = cfg.to_dict()
    assert data["weeks"] == [None, [5, 9]]
    assert data["start"] == "2020-02-29T01:02:03.000004"
    assert data["coworkers"] == ["Ann", "Bob", "Cy"]
    assert ScenarioConfig.from_dict(json.loads(json.dumps(data))) == cfg


@pytest.mark.parametrize("data, message", [
    ({"frequency": 5, "seed": 1}, "unknown scenario config fields: ['frequency']"),
    ({"seed": "5"}, 'scenario config: field \'seed\' must be int, got "5"'),
    ({"weeks": [None, [1, 2.5]]},
     "scenario config: field 'weeks' must be list[tuple[int, int] | None], got [null, [1, 2.5]]"),
    ({"start": 5}, "scenario config: field 'start' must be str, got 5"),
    ({"coworkers": "Pete"}, 'scenario config: field \'coworkers\' must be tuple[str, ...], got "Pete"'),
    ({"patient_fraction": True}, "scenario config: field 'patient_fraction' must be float, got true"),
    ({"active_hours": [8, 20, 1]},
     "scenario config: field 'active_hours' must be tuple[int, int], got [8, 20, 1]"),
])
def test_unknown_and_mistyped_fields_are_config_errors(data, message):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(data)
    assert str(exc.value) == message


def test_config_rejects_bad_ranges():
    with pytest.raises(ConfigError):
        ScenarioConfig(report_duration=(0, 10)).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(weeks=(WeekSpec((300, 100)),)).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(weeks=()).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"frequency": 5})


def test_an_offset_start_is_taken_to_utc():
    def log_from(start):
        return generate(ScenarioConfig.from_dict({"start": start, "weeks": [[600, 900]]}))

    assert fields(log_from("2023-01-02T00:00:00+05:00")) == fields(log_from("2023-01-01T19:00:00"))


@pytest.mark.parametrize("start", ["0001-01-01T00:00:00+05:00", "Monday"])
def test_a_start_out_of_range_or_unparseable_is_a_config_error(start):
    with pytest.raises(ConfigError, match=re.escape(f"start {start!r}")):
        ScenarioConfig.from_dict({"start": start})
