import random
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import BASE, make_log, random_log

from highline import (
    ConfigError,
    DataError,
    Framing,
    analyze_log,
    default_origin,
    parse_duration,
    window_set,
)
from highline.events import to_microseconds


def seconds(s):
    return BASE + timedelta(seconds=s)


def us(s):
    """Microseconds since the epoch of ``s`` seconds after BASE."""
    return to_microseconds(seconds(s))


def test_window_of_boundaries():
    f = Framing(BASE, 20.0)
    assert f.windows_of([us(0), us(19.999), us(20), us(45)]).tolist() == [0, 0, 1, 2]


def test_window_bounds():
    f = Framing(BASE, 20.0)
    assert f.starts_us([0, 1, 2, 3]).tolist() == [us(0), us(20), us(40), us(60)]
    # the shared boundary point belongs to the later window
    assert f.windows_of(f.starts_us([1])).tolist() == [1]


def test_window_set_log_t(log_t):
    f = Framing(BASE, 20.0)
    ws = window_set(f, log_t)
    assert (ws.first, ws.last) == (0, 2)
    assert len(ws) == 3


def test_window_set_single_event():
    log = make_log([("c1", "a", 42, "r1")])
    ws = window_set(Framing(BASE, 20.0), log)
    assert len(ws) == 1


def test_window_set_includes_empty_windows(log_t):
    ws = window_set(Framing(BASE, 5.0), log_t)
    assert (ws.first, ws.last) == (0, 8)


def test_window_set_empty_log():
    with pytest.raises(DataError, match="no events"):
        window_set(Framing(BASE, 20.0), make_log([]))


def test_width_must_be_positive():
    with pytest.raises(ConfigError):
        Framing(BASE, 0.0)


@pytest.mark.parametrize("width", [-1.0, 1e-7, 9.99e-7, float("nan")])
def test_a_width_under_one_microsecond_is_a_config_error(width):
    with pytest.raises(ConfigError, match="at least 1 µs"):
        Framing(BASE, width)


def test_one_microsecond_windows_each_start_one_microsecond_apart():
    f = Framing(BASE, 1e-6)
    assert (np.diff(f.starts_us(np.arange(-1000, 1000))) == 1).all()
    t = to_microseconds(BASE) + 7
    assert f.windows_of([t]).tolist() == [7] and f.starts_us([7, 8]).tolist() == [t, t + 1]


def test_a_fractional_width_puts_each_window_start_in_its_own_window():
    # 30 * 1.1 is 33.0, so window 30 starts at BASE + 33 s, but 33 / 1.1 is
    # 29.999999999999996, whose floor is 29
    f = Framing(BASE, 1.1)
    t = us(33)
    assert f.windows_of([t]).tolist() == [30]
    assert f.starts_us([30]).tolist() == [t]
    log = make_log([("c1", "a", 0, "r1"), ("c1", "b", 33, "r1")])
    assert window_set(f, log).last == 30


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([0.1, 0.3, 1 / 3, 1.1, 7.3, 13.0]),
    st.integers(-10**6, 10**6),
    st.integers(-10**7, 10**7),
    st.sampled_from([-1, 0, 1]),
)
def test_a_time_at_or_beside_a_window_start_lies_in_its_window(width, shift_us, w, step_us):
    origin = BASE + timedelta(microseconds=shift_us)
    f = Framing(origin, width)
    start = to_microseconds(oracles.bounds(origin, width, w)[0])
    assert int(f.starts_us(w)) == start
    t = start + step_us
    got = int(f.windows_of(t))
    assert got == (w - 1 if step_us < 0 else w)
    lo, hi = f.starts_us([got, got + 1]).tolist()
    assert lo <= t < hi
    # an array with more times than windows is searched in a table of starts
    # instead of estimated time by time; both ways agree
    near = [to_microseconds(oracles.bounds(origin, width, w + k)[0]) + d
            for k in range(-2, 3) for d in (-1, 0, 1)]
    assert f.windows_of(near).tolist() == [int(f.windows_of(u)) for u in near]


def test_window_of_is_monotone():
    rng = random.Random(3)
    f = Framing(BASE, 7.5)
    points = sorted(rng.uniform(-1000, 1000) for _ in range(200))
    indices = [int(f.windows_of(us(p))) for p in points]
    assert indices == sorted(indices)


def test_every_event_in_exactly_one_window():
    rng = random.Random(5)
    log = random_log(rng, max_events=60)
    f = Framing(BASE, 13.0)
    ws = window_set(f, log)
    w, t = f.windows_of(log.times_us), log.times_us
    assert ((ws.first <= w) & (w <= ws.last)).all()
    assert ((f.starts_us(w) <= t) & (t < f.starts_us(w + 1))).all()


def test_doubling_width_never_increases_window_count():
    rng = random.Random(9)
    for _ in range(10):
        log = random_log(rng, max_events=50)
        width = rng.uniform(1, 500)
        narrow = window_set(Framing(BASE, width), log)
        wide = window_set(Framing(BASE, 2 * width), log)
        assert len(wide) <= len(narrow)


def test_window_of_round_trips_through_bounds():
    f = Framing(BASE, 37.0)
    for w in range(-3, 50):
        assert int(f.windows_of(f.starts_us(w))) == w


def test_default_origin_is_midnight(log_t):
    origin = default_origin(log_t)
    assert origin == datetime(2024, 1, 1)
    late = make_log([("c1", "a", 0, "r1")], base=datetime(2024, 3, 5, 14, 30))
    assert default_origin(late) == datetime(2024, 3, 5)


@pytest.mark.parametrize(
    "text,expected",
    [("90", 90.0), ("90s", 90.0), ("30m", 1800.0), ("1h", 3600.0), ("1d", 86400.0), ("1w", 604800.0), ("1.5h", 5400.0)],
)
def test_parse_duration(text, expected):
    assert parse_duration(text) == expected


@pytest.mark.parametrize("text", ["", "h", "-5m", "5x", "1h30m"])
def test_parse_duration_rejects_junk(text):
    with pytest.raises(ConfigError):
        parse_duration(text)


def test_a_framing_that_puts_a_window_before_year_one_is_a_config_error():
    log = make_log([("c1", "a", 0, "r1"), ("c1", "b", 3 * 3600, "r2")], base=datetime(1, 1, 1))
    # the first event lies in window -1, which would start on day 0
    with pytest.raises(ConfigError, match=(
        r"^origin 0001-01-01T12:00:00 and width 86400.0 s put window -1 before 0001-01-01$"
    )):
        analyze_log(log, Framing(datetime(1, 1, 1, 12), 86400.0), 0.9, 0.5)
    # the first event's own window starts there
    result = analyze_log(log, Framing(datetime(1, 1, 1), 86400.0), 0.9, 0.5)
    assert (result.windows.first, result.windows.last) == (0, 0)
